"""Flat-RSS soak gate for bounded-memory streaming compression.

Compresses a 100x-longer fig11/cg workload (measured in *events*, not
the scale knob — cg's event count grows quadratically in scale) through
the budgeted interleaved-ingest path (docs/INTERNALS.md §14) and fails
if the process RSS grows past ``budget + fixed overhead`` during
ingestion.  The capture phase is excluded from the gate: the captured
streams are allocated before the baseline RSS is taken and stay
constant while the compressor runs, so the sampled delta isolates
compressor growth.

A 1-byte budget maximizes pressure — every idle rank is spilled on
every enforcement pass, so the soak also proves sustained
spill/evict/reload traffic stays byte-identical to the unbudgeted
pipeline.  The gate asserts:

* sampled peak RSS <= baseline + budget + ``FIXED_OVERHEAD``;
* the merged container is byte-identical to ``merge_all`` over the
  unbudgeted per-rank CTTs;
* spills > 0, reloads > 0, folds == nprocs (the soak actually soaked).

``budget.spills`` / ``budget.reloads`` / ``budget.live_bytes`` (and the
peaks) land in ``results/bench_budget_soak.json`` and, when an
observability registry is active, as ``bench.budget_soak.*`` gauges.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time

from repro.core import serialize
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor, compress_streams
from repro.driver import run_compiled
from repro.mpisim.pmpi import StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

from .common import RESULTS_DIR, emit, fmt_row, publish_gauges

#: Scale knob per workload that yields ~100x the scale-1.0 event count
#: (fig11 scales linearly; cg's niter and cgitmax both scale, so events
#: grow ~quadratically and scale 10 already lands at ~91x).
SOAK_SCALES = {"fig11": 100.0, "cg": 10.0}

#: The soak budget.  One byte maximizes eviction pressure: every rank
#: is over budget the moment it holds any state, so each round-robin
#: pass spills the idle ranks and reloads them on their next batch.
BUDGET_BYTES = 1

#: Allowance on top of the budget for everything that is not CTT state:
#: allocator slack, the partial merged tree, spill I/O buffers, the
#: sampler thread.  An unbounded-buffering regression on a ~400k-event
#: soak costs tens of MB and blows through this.
FIXED_OVERHEAD = 32 << 20

#: Batch size of the round-robin ingest (server-style interleaving).
CHUNK = 4096


def _vm_rss() -> int:
    """Resident set size in bytes via /proc (psutil-free)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found in /proc/self/status")


class _RssSampler:
    """Background thread sampling VmRSS; tracks the peak seen."""

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            rss = _vm_rss()
            if rss > self.peak:
                self.peak = rss
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        rss = _vm_rss()  # final sample so short phases are never missed
        if rss > self.peak:
            self.peak = rss


def soak_one(name: str) -> dict:
    w = WORKLOADS[name]
    nprocs = 4 if 4 in w.valid_procs else min(w.valid_procs)
    scale = SOAK_SCALES[name]

    compiled = compile_minimpi(w.source)
    capture = StreamCaptureSink()
    t0 = time.perf_counter()
    run_compiled(
        compiled, nprocs, defines=w.defines(nprocs, scale), tracer=capture
    )
    capture_s = time.perf_counter() - t0
    streams = capture.streams
    events = sum(len(s) for s in streams.values())

    # Unbudgeted reference bytes, then drop the reference compressor so
    # its memory is not resident during the gated phase.
    ref = compress_streams(compiled.cst, streams)
    ref_blob = serialize.dumps(merge_all(
        [ref.ctt(r) for r in sorted(streams)], nranks=nprocs))
    del ref
    gc.collect()
    rss_base = _vm_rss()

    comp = IntraProcessCompressor(
        compiled.cst, config=CypressConfig(memory_budget_bytes=BUDGET_BYTES)
    )
    comp.enable_incremental_fold(nranks=nprocs, domain=range(nprocs))
    cursors = {r: 0 for r in streams}
    live = sorted(streams)
    t0 = time.perf_counter()
    with _RssSampler() as sampler:
        while live:
            for r in list(live):
                s = streams[r]
                if cursors[r] >= len(s):
                    comp.seal_rank(r)
                    live.remove(r)
                    continue
                comp.ingest_stream(r, s[cursors[r]:cursors[r] + CHUNK])
                cursors[r] += CHUNK
        blob = serialize.dumps(comp.merged(nranks=nprocs))
    ingest_s = time.perf_counter() - t0
    comp.close_spill()

    bc = comp.budget_counters
    limit = rss_base + BUDGET_BYTES + FIXED_OVERHEAD
    result = {
        "workload": name,
        "nprocs": nprocs,
        "events": events,
        "capture_seconds": round(capture_s, 3),
        "ingest_seconds": round(ingest_s, 3),
        "identical": blob == ref_blob,
        "rss_base_bytes": rss_base,
        "rss_peak_bytes": sampler.peak,
        "rss_limit_bytes": limit,
        "rss_flat": sampler.peak <= limit,
        **bc.as_metrics(),
    }

    assert result["identical"], (
        f"{name}: budgeted container differs from unbudgeted merge_all "
        f"({len(blob)} vs {len(ref_blob)} bytes)")
    assert result["rss_flat"], (
        f"{name}: peak RSS {sampler.peak} exceeds baseline {rss_base} + "
        f"budget {BUDGET_BYTES} + overhead {FIXED_OVERHEAD}")
    assert bc.spills > 0, f"{name}: soak produced no spills"
    assert bc.reloads > 0, f"{name}: soak produced no reloads"
    assert bc.folds == nprocs, (
        f"{name}: {bc.folds} folds, expected {nprocs}")
    return result


def main(argv=None) -> int:
    results = [soak_one(name) for name in sorted(SOAK_SCALES)]

    widths = [8, 8, 9, 8, 8, 7, 12, 12, 6]
    lines = [
        "Budget soak (100x events, budget=%d B, overhead=%d MiB)"
        % (BUDGET_BYTES, FIXED_OVERHEAD >> 20),
        fmt_row(["shape", "events", "spills", "reloads", "folds",
                 "peak_kb", "rss_delta_kb", "ingest_s", "flat"], widths),
    ]
    for r in results:
        lines.append(fmt_row([
            r["workload"], r["events"], r["budget.spills"],
            r["budget.reloads"], r["budget.folds"],
            r["budget.peak_live_bytes"] // 1024,
            (r["rss_peak_bytes"] - r["rss_base_bytes"]) // 1024,
            r["ingest_seconds"], "ok" if r["rss_flat"] else "FAIL",
        ], widths))
    emit("bench_budget_soak", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_budget_soak.json").write_text(
        json.dumps({r["workload"]: r for r in results}, indent=2) + "\n")
    for r in results:
        publish_gauges(f"budget_soak.{r['workload']}", {
            k.replace("budget.", ""): v
            for k, v in r.items() if k.startswith("budget.")
        })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
