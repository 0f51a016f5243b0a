"""One per-program :class:`CTTShape`, many per-rank fills: the ranks of
one compressor share the shape's tables and nothing else."""

import copy
import gc
import sys
import tracemalloc

import pytest

sys.path.insert(0, "tests")
from spec_compress import branch_groups as spec_branch_groups  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.budget import decode_rank_state, encode_rank_state  # noqa: E402
from repro.core.ctt import CTT, CTTShape, ShapeTable  # noqa: E402
from repro.core.decompress import _compile  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.intra import CypressConfig, IntraProcessCompressor, compress_streams  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.mpisim.pmpi import StreamCaptureSink  # noqa: E402
from repro.static import cst as C  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

_TABLES = ("loop_child_by_ast_id", "call_children_by_op", "group_by_ast_id")


def _fixed(obj):
    """Nothing a rank writes goes through ``obj``: an immutable value, or
    a table of the shape (read-only, shared by every rank)."""
    return isinstance(
        obj, (tuple, str, int, float, bool, type(None), ShapeTable))


def _capture(name, nprocs):
    w = WORKLOADS[name]
    compiled = compile_minimpi(w.source)
    capture = StreamCaptureSink()
    run_compiled(compiled, nprocs, defines=w.defines(nprocs, 0.1),
                 tracer=capture)
    return compiled.cst, capture.streams


def _owned_objects(ctt):
    """Every mutable object reachable from one rank's tree (vertices,
    their lists, dicts, counters, sequences, records), by identity."""
    owned = {}

    def own(obj):
        if not _fixed(obj):
            owned[id(obj)] = obj

    for v in ctt.vertices():
        own(v)
        for slot in type(v).__slots__:
            own(getattr(v, slot))
        for seq in (v.loop_counts, v.visits):
            if seq is not None:
                own(seq.terms)
        for record in v.records or ():
            own(record)
            for slot in ("terms", "dur_bins", "gap_bins"):
                own(getattr(record, slot))
    return owned


def _tables(ctt):
    """Per vertex, pre-order: the three dispatch tables it points at."""
    return [[getattr(v, name) for name in _TABLES] for v in ctt.vertices()]


def _assert_same_tables(a, b):
    for ta, tb in zip(_tables(a), _tables(b), strict=True):
        for x, y in zip(ta, tb):
            assert type(x) is ShapeTable and x is y


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
        # ...and every vertex of every rank points at the shape's tables.
        for rank in ranks[1:]:
            _assert_same_tables(comp.ctt(ranks[0]), comp.ctt(rank))

    def test_what_a_rank_ingests_stays_on_that_rank(self):
        cst, streams = _capture("mg", 16)
        comp = IntraProcessCompressor(cst)
        comp.ingest_stream(5, streams[5])
        idle = comp.ctt(0)
        assert idle.record_count() == 0
        assert all(v.leaf_visits == 0 and v.search_pos == 0
                   for v in idle.vertices())
        assert all(count == 0
                   for v in idle.vertices() for count in v.group_visits)
        assert any(v.group_visits for v in idle.vertices())

    def test_shared_empties_are_immutable(self):
        cst, _ = _capture("mg", 16)
        shape = CTTShape(cst)
        a, b = CTT(shape, 0), CTT(shape, 1)
        leaves = [v for v in a.vertices() if not v.children]
        assert leaves
        for leaf in leaves:
            assert type(leaf.children) is tuple
            assert type(leaf.group_visits) is tuple
            for name in _TABLES:
                assert not getattr(leaf, name)
            with pytest.raises(AttributeError):
                leaf.children.append(leaf)
        # Every table, empty or not, is the shape's: a write raises.
        for tables in _tables(a):
            for table in tables:
                assert table.get("stray") is None
                for write in (
                    lambda t: t.__setitem__("stray", ()),
                    lambda t: t.setdefault("stray", ()),
                    lambda t: t.update(stray=()),
                    lambda t: t.pop("stray", None),
                    lambda t: t.clear(),
                ):
                    with pytest.raises(TypeError):
                        write(table)
        groups = [g for v in a.vertices()
                  for gs in v.group_by_ast_id.values() for g in gs]
        assert groups
        for group in groups:
            with pytest.raises(AttributeError):
                group.number = 0
        _assert_same_tables(a, b)
        # ...and a parent's child list and group counters are its own.
        for va, vb in zip(a.vertices(), b.vertices()):
            if va.children:
                assert va.children is not vb.children
            if va.group_visits:
                assert va.group_visits is not vb.group_visits

    def test_deep_copy_is_another_isolated_rank(self):
        cst, streams = _capture("mg", 16)
        comp = IntraProcessCompressor(cst)
        comp.ingest_stream(5, streams[5])
        original = comp.ctt(5)
        clone = copy.deepcopy(original)
        assert not _owned_objects(original).keys() & _owned_objects(clone).keys()
        _assert_same_tables(original, clone)
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


class TestBranchGroupRule:
    """The compressor's cursor and the replay and invariant walks group
    sibling branch paths by one rule, ``cst.branch_groups``, and it is
    the spec compressor's."""

    @staticmethod
    def _check(cst):
        for v in CTT(CTTShape(cst), 0).vertices():
            runs = C.branch_groups(v.children)
            assert [(run.start, run[-1]) for run in runs] == [
                group[1:3] for group in spec_branch_groups(v)
            ]
            layouts = sorted(
                (g for gs in v.group_by_ast_id.values() for g in gs),
                key=lambda g: g.number,
            )
            assert [(g.first_index, g.last_index) for g in layouts] == [
                (run.start, run[-1]) for run in runs
            ]
            assert [
                paths for kind, paths, _ in _compile(v) if kind == C.BRANCH
            ] == [v.children[run.start:run.stop] for run in runs]

    def test_registered_workloads(self):
        for w in WORKLOADS.values():
            self._check(compile_minimpi(w.source).cst)

    def test_repeated_paths_and_interleaved_ifs(self):
        kids = [
            C.CSTNode(C.BRANCH, ast_id=ast_id, branch_path=path)
            for ast_id, path in ((7, 0), (7, 1), (7, 0), (8, 1), (8, 0), (7, 1))
        ]
        cst = C.CSTNode(C.ROOT, children=kids)
        C.assign_gids(cst)
        assert len(C.branch_groups(kids)) == 4
        self._check(cst)


class TestFootprint:
    def test_256_mg_fills_fit_in_5_5_mb(self):
        """What ``wide_mg`` pays per rank before its first event: 256
        fills of mg's 45-vertex shape.  Payload and cursor only — 4.7 MB
        under tracemalloc, against 7.6 MB when every rank bound its own
        dispatch tables and branch groups."""
        shape = CTTShape(compile_minimpi(WORKLOADS["mg"].source).cst)
        CTT(shape, 0)  # warm
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ctts = [CTT(shape, rank) for rank in range(256)]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ctts[-1].vertices()) == 45
        assert grown <= 5.5e6


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
