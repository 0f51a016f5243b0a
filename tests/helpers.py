"""Shared test utilities."""

from __future__ import annotations

import functools
import struct

from repro.baselines.scalatrace import event_signature
from repro.core import run_cypress
from repro.core.decompress import decompress_merged_rank, decompress_rank
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.driver import Capture, run_compiled
from repro.mpisim.pmpi import MultiSink, RecordingSink, StreamCaptureSink
from repro.static.cst import BRANCH, CALL
from repro.static.instrument import compile_minimpi
from repro.workloads import get as get_workload
from tests.record_fields import duration, occurrences, pre_gap

_pack = struct.Struct("<d").pack


def run_traced(
    source: str,
    nprocs: int,
    defines: dict[str, int] | None = None,
    config: CypressConfig | None = None,
    max_steps: int | None = 2_000_000,
):
    """Compile + run with both a ground-truth recorder and the CYPRESS
    compressor attached.  Returns (compiled, recorder, compressor, result).
    """
    compiled = compile_minimpi(source)
    recorder = RecordingSink()
    compressor = IntraProcessCompressor(compiled.cst, config=config)
    result = run_compiled(
        compiled,
        nprocs,
        defines=defines,
        tracer=MultiSink([recorder, compressor]),
        max_steps=max_steps,
    )
    return compiled, recorder, compressor, result


def replay_into(streams: dict[int, list], sink) -> None:
    """Re-drive ``sink`` from captured per-rank item ``streams``, one
    rank at a time, through its emitters.  Only per-rank order is
    preserved (enough for any sink whose state is per-rank, like the
    compressors).  Ends with ``sink.flush()``, as every driver of a
    sink does."""
    for rank in sorted(streams):
        emit = sink.stream(rank)
        for item in streams[rank]:
            emit(item)
    sink.flush()


def capture_with_truth(source: str, nprocs: int, defines=None):
    """One run of ``source`` under a stream capture sink and an
    independent ground-truth recorder: ``(Capture, recorder)``."""
    compiled = compile_minimpi(source)
    recorder, capture = RecordingSink(), StreamCaptureSink()
    result = run_compiled(
        compiled, nprocs, defines=defines,
        tracer=MultiSink([recorder, capture]),
    )
    return (Capture(compiled, nprocs, capture.streams, result.total_events),
            recorder)


def default_procs(w) -> int:
    """Smallest valid rank count >= 4 (else the smallest valid one) —
    big enough for real grouping, small enough for CI."""
    eligible = [p for p in w.valid_procs if p >= 4]
    return min(eligible or w.valid_procs)


def first_divergence(got, want) -> str | None:
    """``None`` when two event sequences are equal, else where they
    first differ and how."""
    n = min(len(got), len(want))
    i = next((i for i in range(n) if got[i] != want[i]), n)
    if i == n and len(got) == len(want):
        return None

    def at(seq):
        return repr(seq[i]) if i < len(seq) else "<end>"

    return (f"first divergence at event {i}: {at(got)} != {at(want)} "
            f"({len(got)} vs {len(want)} events)")


def assert_replay_exact(recorder, compressor, nprocs: int, merged: bool = False):
    """Sequence-preservation check for every rank."""
    merged_ctt = None
    if merged:
        merged_ctt = merge_all([compressor.ctt(r) for r in range(nprocs)])
    for rank in range(nprocs):
        truth = [e.replay_tuple() for e in recorder.events.get(rank, [])]
        if merged:
            replay = [e.call_tuple() for e in decompress_merged_rank(merged_ctt, rank)]
        else:
            replay = [e.call_tuple() for e in decompress_rank(compressor.ctt(rank))]
        divergence = first_divergence(replay, truth)
        assert divergence is None, f"rank {rank}: {divergence}"
    return merged_ctt


def truth_signatures(recorder, rank: int):
    return [event_signature(e, rank) for e in recorder.events.get(rank, [])]


def _seq_fields(seq):
    return None if seq is None else (seq.length, tuple(seq.terms))


def _stats_fields(st):
    # Floats by bit pattern (NaN, -0.0); an empty block's +-inf extremes
    # are written as 0.0, the one normalisation the format makes.
    lo, hi = (st.minimum, st.maximum) if st.count else (0.0, 0.0)
    return (st.mode, st.count, _pack(st.mean), _pack(st.m2), _pack(lo),
            _pack(hi), None if st.bins is None else tuple(st.bins))


def tree_fields(merged):
    """Everything a container carries about ``merged``."""
    vertices = []
    for v in merged.root.preorder():
        groups = [
            (
                tuple(g.ranks), _seq_fields(g.counts), _seq_fields(g.visits),
                None if g.records is None else [
                    (r.key, _seq_fields(occurrences(r)), r.pending,
                     _stats_fields(duration(r)), _stats_fields(pre_gap(r)))
                    for r in g.records
                ],
            )
            for g in v.sorted_groups()
        ]
        vertices.append((
            v.kind, len(v.children), groups,
            (v.op, v.name) if v.kind == CALL else None,
            (v.branch_path or 0, v.ast_id) if v.kind == BRANCH else None,
        ))
    return merged.nranks_merged, vertices


#: The five benchmarks/e2e containers at their full sizes: (workload,
#: nprocs, scale) for each job a workload traces.
E2E_SHAPES = {
    "loop_fig11": [("fig11", 4, 5)],
    "irregular_sp": [("sp", 16, 3)],
    "wide_mg": [("mg", 256, 0.1)],
    "budget_cg": [("cg", 8, 3)],
    "serve_mixed": [("fig11", 4, 10), ("farm", 8, 20)],
}


@functools.lru_cache(maxsize=None)
def e2e_trees(name: str) -> tuple:
    """The merged trees of one :data:`E2E_SHAPES` workload, built once a
    session: callers must not change them."""
    trees = []
    for workload, nprocs, scale in E2E_SHAPES[name]:
        w = get_workload(workload)
        trees.append(run_cypress(
            w.source, nprocs, defines=w.defines(nprocs, scale)
        ).merge())
    return tuple(trees)
