"""The metric catalogue: ``BENCHMARK.json`` is the contract (names, units,
directions, bounds); this module adds what the contract has no field for —
which end-to-end metric each per-layer metric is expected to move, and on
which workload, written down before measuring.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

ALL = ("loop_fig11", "irregular_sp", "wide_mg", "budget_cg", "serve_mixed")


#: What a user of the server sees and no batch workload has.  The
#: contract wants every end-to-end metric from every workload and never 0,
#: so these stay per-layer there; ``--check-stability`` holds them to
#: these bounds on ``serve_mixed``.
SERVE_ONLY = {
    "server.ack_ms_p50": 0.25,
    "server.recover_events_per_s": 0.25,
}


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _on(metrics: tuple[str, ...], workloads: tuple[str, ...]) -> list:
    return [(m, w) for m in metrics for w in workloads]


_CAPTURE = _on(("trace_wall_s", "trace_overhead_ratio"),
               ("loop_fig11", "wide_mg"))
_LIVE = _on(("trace_overhead_ratio",), ("loop_fig11", "irregular_sp"))
_PACKED = _on(("compress_events_per_s",), ("loop_fig11", "serve_mixed"))
_INGEST = _on(("compress_events_per_s",),
              ("loop_fig11", "irregular_sp", "wide_mg"))
_INGEST_STREAM = _INGEST + _on(("compress_events_per_s",), ("serve_mixed",))
_MERGE = _on(("compress_events_per_s",), ("wide_mg",))
_SERIALIZE = _on(("open_query_ms_p50", "compress_events_per_s"),
                 ("irregular_sp",))
_QUERY = _on(("open_query_ms_p50",), ("irregular_sp", "wide_mg"))
_REPLAY = _on(("replay_events_per_s",), ("loop_fig11",))
_BUDGET = _on(("compress_events_per_s", "peak_rss_mb"), ("budget_cg",))
_SERVER = _on(("compress_events_per_s", "trace_wall_s"), ("serve_mixed",))
_NONE: list = []  # settles a ROADMAP question or reports benchmark health

#: per-layer metric -> [(end-to-end metric, workload)] it should move.
#: Everything not listed for a workload is predicted flat there.
MOVES: dict[str, list] = {
    "static.compile_s": _on(("setup_s",), ALL),  # expected < 1%: no effect
    "mpisim.null_run_s": _CAPTURE,
    "mpisim.capture_run_s": _CAPTURE,
    "mpisim.live_run_s": _CAPTURE,
    "mpisim.capture_overhead_ratio": _CAPTURE,
    "mpisim.events": _CAPTURE,
    "mpisim.items": _CAPTURE,
    "intra.live_callbacks_s": _LIVE,
    "packed.encode_s": _PACKED,
    "packed.encode_events_per_s": _PACKED,
    "packed.decode_s": _PACKED,
    "packed.bytes": _PACKED,
    "packed.bytes_per_item": _PACKED,
    "intra.ingest_runs_s": _INGEST,
    "intra.ingest_runs_events_per_s": _INGEST,
    "intra.ingest_stream_s": _INGEST_STREAM,
    "intra.ingest_stream_events_per_s": _INGEST_STREAM,
    "intra.compress_streams_s": _INGEST,
    "intra.records": _INGEST,
    "intra.events_per_record": _INGEST,
    "intra.live_bytes": _INGEST,
    "respool.compress_w2_s": _NONE,
    "respool.pool_setup_s": _NONE,
    "respool.w2_vs_serial_ratio": _NONE,
    "inter.merge_tree_s": _MERGE,
    "inter.merge_fold_s": _MERGE,
    "inter.groups": _MERGE,
    "inter.vertices": _MERGE,
    "inter.merge_us_per_rank": _MERGE,
    "serialize.dumps_s": _SERIALIZE,
    "serialize.dumps_gzip_s": _SERIALIZE,
    "serialize.loads_s": _SERIALIZE,
    "query.traffic_ms": _QUERY,
    "query.ordering_ms": _QUERY,
    "query.rank_profile_ms": _QUERY,
    "query.critical_leaves_ms": _QUERY,
    "query.open_query_ms_p95": _QUERY,
    "decompress.all_s": _REPLAY,
    "decompress.events_per_s": _REPLAY,
    "budget.ingest_s": _BUDGET,
    "budget.unbudgeted_ingest_s": _BUDGET,
    "budget.slowdown_ratio": _BUDGET,
    "budget.spills": _BUDGET,
    "budget.reloads": _BUDGET,
    "budget.spill_bytes": _BUDGET,
    "budget.reload_bytes": _BUDGET,
    "budget.folds": _BUDGET,
    "budget.peak_live_bytes": _BUDGET,
    "server.spawn_s": _on(("setup_s",), ("serve_mixed",)),
    "server.split_batches_s": _on(("setup_s",), ("serve_mixed",)),
    "server.batches": _SERVER,
    "server.wire_bytes": _SERVER,
    "server.submit_s": _SERVER,
    "server.finalize_s": _SERVER,
    "server.checkpoints": _SERVER,
    "server.buffered_bytes_max": _SERVER,
    "server.throttles_seen": _SERVER,
    "server.reconnects": _SERVER,
    "server.serve_events_per_s": _SERVER,
    "server.ack_ms_p50": _SERVER,
    "server.ack_ms_p95": _SERVER,
    "server.ack_ms_max": _SERVER,
    "server.recover_s": _NONE,
    "server.recover_events_per_s": _NONE,
    "server.recovered_batches": _NONE,
    "bench.tracing_overhead_ratio": _NONE,
    "bench.calibration_factor": _NONE,
    "bench.loadavg_start": _NONE,
}
