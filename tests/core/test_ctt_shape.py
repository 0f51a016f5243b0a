"""One per-program :class:`CTTShape`, many per-rank fills: the ranks of
one compressor share the shape and nothing else."""

import copy
from collections.abc import Mapping, MutableMapping

import pytest

from repro.core import serialize
from repro.core.budget import decode_rank_state, encode_rank_state
from repro.core.ctt import CTT, CTTShape
from repro.core.inter import merge_all
from repro.core.intra import CypressConfig, IntraProcessCompressor, compress_streams
from repro.driver import run_compiled
from repro.mpisim.pmpi import StreamCaptureSink
from repro.static.instrument import compile_minimpi
from repro.workloads import WORKLOADS

def _immutable(obj):
    """A write cannot go through ``obj``: sharing it between two ranks
    cannot alias state."""
    return isinstance(obj, (tuple, str, int, float, bool, type(None))) or (
        isinstance(obj, Mapping) and not isinstance(obj, MutableMapping)
    )


def _capture(name, nprocs):
    w = WORKLOADS[name]
    compiled = compile_minimpi(w.source)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=w.defines(nprocs, 0.1),
                 tracer=capture)
    return compiled.cst, capture.streams


def _owned_objects(ctt):
    """Every mutable object reachable from one rank's tree (vertices,
    their lists, dicts, groups, sequences, records), by identity."""
    owned = {}

    def own(obj):
        if not _immutable(obj):
            owned[id(obj)] = obj

    for v in ctt.vertices():
        own(v)
        for slot in type(v).__slots__:
            own(getattr(v, slot))
        for table in (v.loop_child_by_ast_id, v.call_children_by_op,
                      v.group_by_ast_id):
            for candidates in table.values():
                own(candidates)
        for group in v.branch_groups:
            own(group)
            own(group.paths)
        for seq in (v.loop_counts, v.visits):
            if seq is not None:
                own(seq.terms)
        for record in v.records or ():
            own(record)
            own(record.occurrences)
            own(record.occurrences.terms)
            own(record.duration)
            own(record.pre_gap)
    return owned


class TestRankIsolation:
    def test_ranks_share_only_the_shape(self):
        cst, streams = _capture("mg", 16)
        comp = IntraProcessCompressor(cst)
        # Even and odd ranks take different branches of mg's exchange.
        ranks = (0, 5, 14)
        assert len(streams[0]) != len(streams[5])
        for rank in ranks:
            comp.ingest_stream(rank, streams[rank])
        owned = [_owned_objects(comp.ctt(rank)) for rank in ranks]
        for i, mine in enumerate(owned):
            assert len(mine) > comp.ctt(ranks[i]).vertex_count()
            for theirs in owned[i + 1:]:
                shared = mine.keys() & theirs.keys()
                assert not shared, [type(mine[k]).__name__ for k in shared]

    def test_what_a_rank_ingests_stays_on_that_rank(self):
        cst, streams = _capture("mg", 16)
        comp = IntraProcessCompressor(cst)
        comp.ingest_stream(5, streams[5])
        idle = comp.ctt(0)
        assert idle.record_count() == 0
        assert all(v.leaf_visits == 0 and v.search_pos == 0
                   for v in idle.vertices())
        assert all(g.visit_counter == 0
                   for v in idle.vertices() for g in v.branch_groups)

    def test_shared_empties_are_immutable(self):
        cst, _ = _capture("mg", 16)
        shape = CTTShape(cst)
        a, b = CTT(shape, 0), CTT(shape, 1)
        leaves = [v for v in a.vertices() if not v.children]
        assert leaves
        for leaf in leaves:
            assert type(leaf.children) is tuple
            assert type(leaf.branch_groups) is tuple
            for table in (leaf.loop_child_by_ast_id, leaf.call_children_by_op,
                          leaf.group_by_ast_id):
                assert _immutable(table) and not table
                assert table.get("MPI_Send") is None
                with pytest.raises(TypeError):
                    table["stray"] = []
            with pytest.raises(AttributeError):
                leaf.children.append(leaf)
        # ...and a parent's tables are its own.
        for va, vb in zip(a.vertices(), b.vertices()):
            if va.children:
                assert va.children is not vb.children
                assert va.branch_groups is not vb.branch_groups

    def test_deep_copy_is_another_isolated_rank(self):
        cst, streams = _capture("mg", 16)
        comp = IntraProcessCompressor(cst)
        comp.ingest_stream(5, streams[5])
        original = comp.ctt(5)
        clone = copy.deepcopy(original)
        assert not _owned_objects(original).keys() & _owned_objects(clone).keys()
        assert serialize.dumps(merge_all([clone])) == serialize.dumps(
            merge_all([original]))

    def test_standalone_ctt_matches_shape_fill(self):
        cst, _ = _capture("mg", 16)
        alone, filled = CTT(cst, 3), CTT(CTTShape(cst), 3)
        assert alone.rank == filled.rank == 3
        for va, vb in zip(alone.vertices(), filled.vertices(), strict=True):
            assert (va.gid, va.kind, va.ast_id, va.name, va.op,
                    va.branch_path, va.op_nonblocking) == (
                vb.gid, vb.kind, vb.ast_id, vb.name, vb.op,
                vb.branch_path, vb.op_nonblocking)
            assert [c.gid for c in va.children] == [c.gid for c in vb.children]
        assert alone.vertices() == list(alone.root.preorder())

    def test_snapshot_round_trip_mid_stream_continues_to_same_bytes(self):
        _snapshot_mid_stream("mg", 16, CypressConfig())

    def test_snapshot_round_trip_mid_stream_with_histograms(self):
        # The spill reader is the container's record decoder; only this
        # mode makes it fill bins.
        _snapshot_mid_stream("cg", 8, CypressConfig(timing_mode="hist"))


def _snapshot_mid_stream(name, nprocs, config):
    cst, streams = _capture(name, nprocs)
    ref = compress_streams(cst, streams, config=config)
    want = serialize.dumps(merge_all(
        [ref.ctt(r) for r in range(nprocs)], nranks=nprocs))
    comp = IntraProcessCompressor(cst, config=config)
    for rank in range(nprocs):
        stream = streams[rank]
        half = len(stream) // 2
        comp.ingest_stream(rank, stream[:half])
        snapshot = encode_rank_state(comp.state(rank))
        # Decode into a fresh fill of the compressor's shape, as a
        # reload does, and carry on from there.
        comp.table.live[rank] = decode_rank_state(
            snapshot, comp.table._new_state)
        comp.ingest_stream(rank, stream[half:])
    got = serialize.dumps(merge_all(
        [comp.ctt(r) for r in range(nprocs)], nranks=nprocs))
    assert got == want
