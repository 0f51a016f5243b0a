"""Shared test utilities."""

from __future__ import annotations

import struct

from repro.baselines.scalatrace import event_signature
from repro.core.decompress import decompress_merged_rank, decompress_rank
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor
from repro.driver import run_compiled
from repro.mpisim.pmpi import MultiSink, RecordingSink
from repro.static.cst import BRANCH, CALL
from repro.static.instrument import compile_minimpi

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
        assert replay == truth, (
            f"rank {rank}: replay diverges at index "
            f"{next((i for i, (a, b) in enumerate(zip(replay, truth)) if a != b), min(len(replay), len(truth)))}"
            f" ({len(replay)} vs {len(truth)} events)"
        )
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
                    (r.key, _seq_fields(r.occurrences), r.pending,
                     _stats_fields(r.duration), _stats_fields(r.pre_gap))
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
