"""Analysis + query functions on *hand-built* merged trees.

Everything else in this package traces real MiniMPI programs; here the
merged CTT is constructed payload by payload (CST skeleton → per-rank
CTT → ``merge_all``, checked against ``tests/spec_merge.py``), so every
expected number is written down literally rather than derived from a
second implementation.  This pins the aggregation formulas (count ×
members, send+recv bytes, mean × count time) to known inputs."""

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, "tests")
from spec_compress import make_key  # noqa: E402
from spec_merge import spec_merge  # noqa: E402

from repro.analysis import (  # noqa: E402
    communication_matrix,
    diff_traces,
    hotspots,
    message_sizes,
    neighbor_sets,
    summarize,
)
from repro import query  # noqa: E402
from repro.core import serialize  # noqa: E402
from repro.core.ctt import CTT  # noqa: E402
from repro.core.inter import MergedCTT, merge_all  # noqa: E402
from repro.core.records import CompressedRecord  # noqa: E402
from repro.mpisim.events import NO_PEER  # noqa: E402
from repro.static.cst import CALL, LOOP, ROOT, CSTNode, assign_gids  # noqa: E402

_NOPEER = ("abs", NO_PEER)


def _skeleton() -> CSTNode:
    """root ─ loop#1(ast 1) ─ mpi_send@2 ; mpi_allreduce@3"""
    cst = CSTNode(kind=ROOT, children=[
        CSTNode(kind=LOOP, ast_id=1, children=[
            CSTNode(kind=CALL, ast_id=2, name="mpi_send"),
        ]),
        CSTNode(kind=CALL, ast_id=3, name="mpi_allreduce"),
    ])
    assign_gids(cst)
    return cst


def _send_record(delta: int, nbytes: int, iters: int,
                 duration_us: float) -> CompressedRecord:
    rec = CompressedRecord(key=make_key(
        "MPI_Send", ("rel", delta), _NOPEER, 7, 0, nbytes, 0, 0, -1,
        False, (),
    ))
    for i in range(iters):
        rec.add_occurrence(i, duration_us, 1.0)
    return rec


def _coll_record(nbytes: int, duration_us: float) -> CompressedRecord:
    rec = CompressedRecord(key=make_key(
        "MPI_Allreduce", _NOPEER, _NOPEER, 0, 0, nbytes, 0, 0, -1,
        False, (),
    ))
    rec.add_occurrence(0, duration_us, 2.0)
    return rec


def build_ctts(nranks: int = 2, iters: int = 3,
               nbytes: int = 512) -> list[CTT]:
    """Each rank sends ``iters`` × ``nbytes`` around the ring, then one
    allreduce.  Rank r's send takes (r+1)×10 µs per call."""
    cst = _skeleton()
    ctts = []
    for rank in range(nranks):
        ctt = CTT(cst, rank)
        loop, leaf = ctt.vertex(1), ctt.vertex(2)
        coll = ctt.vertex(3)
        loop.loop_counts.append(iters)
        delta = 1 if rank + 1 < nranks else 1 - nranks  # ring wraparound
        leaf.records.append(
            _send_record(delta, nbytes, iters, 10.0 * (rank + 1)))
        coll.records.append(_coll_record(8, 5.0))
        ctts.append(ctt)
    return ctts


def build_merged(nranks: int = 2, iters: int = 3,
                 nbytes: int = 512) -> MergedCTT:
    return merge_all(build_ctts(nranks, iters, nbytes))


NRANKS, ITERS, NBYTES = 3, 4, 256


@pytest.fixture(scope="module")
def merged():
    return build_merged(NRANKS, ITERS, NBYTES)


def test_handbuilt_merge_matches_the_spec():
    ctts = build_ctts(NRANKS, ITERS, NBYTES)
    assert serialize.dumps(merge_all(ctts)) == serialize.dumps(spec_merge(ctts))


class TestPatternsOnHandbuilt:
    def test_matrix_is_exact_ring(self, merged):
        m = communication_matrix(merged, NRANKS)
        want = np.zeros((NRANKS, NRANKS), dtype=np.int64)
        for r in range(NRANKS):
            want[r, (r + 1) % NRANKS] = ITERS * NBYTES
        assert (m == want).all()

    def test_message_sizes(self, merged):
        assert message_sizes(merged) == {NBYTES: NRANKS * ITERS}

    def test_neighbor_sets(self, merged):
        # Symmetric union: ring rank r talks to both r+1 (sends) and
        # r-1 (receives from).
        m = communication_matrix(merged, NRANKS)
        assert neighbor_sets(m) == {
            r: sorted({(r + 1) % NRANKS, (r - 1) % NRANKS})
            for r in range(NRANKS)
        }

    def test_out_of_range_peer_warns_and_counts(self):
        from repro import obs

        # No wraparound: the last rank's +1 send exits the rank space.
        cst = _skeleton()
        ctt = CTT(cst, 1)
        ctt.vertex(1).loop_counts.append(2)
        ctt.vertex(2).records.append(_send_record(+1, 64, 2, 1.0))
        broken = merge_all([ctt])
        registry = obs.enable()
        try:
            with pytest.warns(RuntimeWarning, match="out-of-range"):
                m = communication_matrix(broken, nprocs=2)
        finally:
            obs.disable()
        assert m.sum() == 0
        # One rank's one record, two messages: the engine's counter
        # tracks dropped messages.
        assert registry.counters["query.out_of_range_peers"] == 2

    def test_source_outside_nprocs_is_dropped_too(self):
        # The 8-rank golden trace read as 2 ranks: ranks 2..7 send, but
        # have no row.  Each of their sends is dropped and counted, and
        # the matrix keeps its 2x2 shape.
        from repro import obs

        path = pathlib.Path(__file__).parent.parent / "data" / "golden_mg_v8.cyp"
        golden = serialize.loads(path.read_bytes())
        full = query.traffic(golden, "rank_pair")
        kept = sum(cell.messages for (src, dst), cell in full.items()
                   if src < 2 and dst < 2)
        registry = obs.enable()
        try:
            with pytest.warns(RuntimeWarning,
                              match="out-of-range source or destination"):
                m = communication_matrix(golden, nprocs=2)
        finally:
            obs.disable()
        assert m.shape == (2, 2) and m.sum() > 0
        assert registry.counters["query.out_of_range_peers"] == (
            sum(cell.messages for cell in full.values()) - kept
        )
        with pytest.warns(RuntimeWarning):
            pairs = query.traffic(golden, "rank_pair", 2)
        assert pairs == query.traffic_via_replay(golden, "rank_pair", 2)


class TestSummarizeOnHandbuilt:
    def test_per_op_totals(self, merged):
        report = summarize(merged)
        assert report.nranks == NRANKS
        send = report.ops["MPI_Send"]
        assert send.calls == NRANKS * ITERS
        assert send.nbytes == NRANKS * ITERS * NBYTES
        # Rank r's sends: ITERS calls x 10(r+1) µs.
        assert send.time_us == pytest.approx(
            sum(ITERS * 10.0 * (r + 1) for r in range(NRANKS)))
        coll = report.ops["MPI_Allreduce"]
        assert coll.calls == NRANKS
        assert coll.nbytes == NRANKS * 8
        assert report.total_events == NRANKS * (ITERS + 1)
        assert report.total_gap_us == pytest.approx(
            NRANKS * ITERS * 1.0 + NRANKS * 2.0)

    def test_format_mentions_every_op(self, merged):
        text = summarize(merged).format()
        assert "MPI_Send" in text and "MPI_Allreduce" in text


class TestHotspotsOnHandbuilt:
    def test_leaf_weights_exact(self, merged):
        leaves = {c.gid: c for c in query.critical_leaves(merged, 10)}
        send_total = sum(ITERS * 10.0 * (r + 1) for r in range(NRANKS))
        assert leaves[2].total_us == pytest.approx(send_total)
        assert leaves[2].calls == NRANKS * ITERS
        assert leaves[3].total_us == pytest.approx(NRANKS * 5.0)
        # The send loop dominates the allreduce.
        assert query.critical_leaves(merged, 1)[0].gid == 2

    def test_tree_rollup(self, merged):
        root = hotspots(merged)
        assert root.total_us == pytest.approx(
            sum(c.total_us for c in root.children))
        assert root.calls == NRANKS * (ITERS + 1)


class TestQueriesOnHandbuilt:
    def test_traffic_by_op(self, merged):
        t = query.traffic(merged, group_by="op")
        assert t["MPI_Send"] == query.Traffic(
            messages=NRANKS * ITERS, nbytes=NRANKS * ITERS * NBYTES)

    def test_ordering_loop_before_collective(self, merged):
        r = query.ordering(merged, 2, 3, 0)
        assert r.relation == "before"
        assert (r.count_a, r.count_b) == (ITERS, 1)

    def test_rank_profile_exact_time(self, merged):
        # The wrapped send of rank 2 is the ring's same neighbour, so all
        # three ranks share one send record: its mean of 10, 20, 30 µs.
        p = query.rank_profile(merged, 2)
        assert p.ops["MPI_Send"].time_us == pytest.approx(ITERS * 20.0)
        assert p.events == ITERS + 1


class TestDiffOnHandbuilt:
    def test_iteration_count_diff_names_the_loop_send(self):
        a = build_merged(2, iters=3)
        b = build_merged(2, iters=5)
        d = diff_traces(a, b)
        assert not d.identical
        for rd in d.diverged:
            # After 3 common sends, A is at the allreduce while B is
            # still in the loop — both sides named structurally.
            assert rd.first_divergence == 3
            assert rd.path_a == "MPI_Allreduce@3"
            assert rd.path_b == "loop#1/MPI_Send@2"
            assert rd.where() == (
                "at MPI_Allreduce@3 (A) vs loop#1/MPI_Send@2 (B)")
        assert "loop#1/MPI_Send@2" in d.format()

    def test_pure_tail_growth_points_at_extra_event(self):
        # Trailing loop: allreduce first, then the send loop.  Different
        # iteration counts then share a full common prefix and only the
        # lengths differ — the report points at B's first extra event.
        def trailing_loop(iters: int) -> MergedCTT:
            cst = CSTNode(kind=ROOT, children=[
                CSTNode(kind=CALL, ast_id=3, name="mpi_allreduce"),
                CSTNode(kind=LOOP, ast_id=1, children=[
                    CSTNode(kind=CALL, ast_id=2, name="mpi_send"),
                ]),
            ])
            assign_gids(cst)
            ctt = CTT(cst, 0)
            ctt.vertex(1).records.append(_coll_record(8, 5.0))
            ctt.vertex(2).loop_counts.append(iters)
            ctt.vertex(3).records.append(_send_record(0, 64, iters, 1.0))
            return merge_all([ctt])

        d = diff_traces(trailing_loop(2), trailing_loop(3))
        assert not d.identical
        [rd] = d.diverged
        assert rd.first_divergence == -1
        assert (rd.len_a, rd.len_b) == (3, 4)
        assert rd.path_a == ""
        assert rd.path_b == "loop#2/MPI_Send@3"
        assert rd.where() == "at loop#2/MPI_Send@3"

    def test_payload_diff_carries_both_paths(self):
        a = build_merged(2, nbytes=128)
        b = build_merged(2, nbytes=4096)
        d = diff_traces(a, b)
        assert not d.identical
        rd = d.diverged[0]
        assert rd.first_divergence == 0
        assert rd.path_a == rd.path_b == "loop#1/MPI_Send@2"
        assert rd.where() == "at loop#1/MPI_Send@2"
