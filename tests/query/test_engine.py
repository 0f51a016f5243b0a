"""Unit tests for the decompression-free query engine: structural
addressing, sequence arithmetic, each query's semantics on known shapes,
and the observability wiring."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro import obs, query  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.sequences import IntSequence  # noqa: E402
from repro.query.engine import (  # noqa: E402
    CriticalLeaf,
    _activation_of,
    rank_leaves,
)
from repro.static.cst import CALL  # noqa: E402


def merged_of(source, nprocs, defines=None):
    _, _, cyp, _ = run_traced(source, nprocs, defines=defines)
    return merge_all([cyp.ctt(r) for r in range(nprocs)])


RING = """
func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < n; i = i + 1) {
    mpi_send((rank + 1) % size, 512, 1);
    mpi_recv((rank + size - 1) % size, 512, 1);
  }
  mpi_allreduce(8);
  mpi_finalize();
}
"""

# Ranks 2 and up record no event at all.
PAIR_ONLY = """
func main() {
  var rank = mpi_comm_rank();
  if (rank < 2) {
    mpi_send(1 - rank, 512, 1);
    mpi_recv(1 - rank, 512, 1);
  }
}
"""

SEQUENTIAL = """
func main() {
  mpi_init();
  mpi_allreduce(8);
  for (var i = 0; i < 4; i = i + 1) {
    mpi_bcast(0, 64);
  }
  mpi_barrier();
  mpi_finalize();
}
"""

ALTERNATING = """
func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  for (var i = 0; i < 6; i = i + 1) {
    mpi_allreduce(8);
    mpi_bcast(0, 32);
  }
  if (rank == 0) {
    mpi_send(0, 16, 3);
    mpi_recv(0, 16, 3);
  }
  mpi_finalize();
}
"""


def leaf_gids(merged, op=None):
    return [
        v.gid for v in merged.root.preorder()
        if v.kind == CALL and (op is None or v.op == op)
    ]


# ---------------------------------------------------------------------------
# IntSequence arithmetic the engine leans on.


class TestSequenceArithmetic:
    def test_total_matches_expansion(self):
        for values in ([], [5], [3, 3, 3], [0, 1, 2, 3], [7, 2, 9, 9, 9, 4]):
            seq = IntSequence.from_values(values)
            assert seq.total() == sum(values)

    def test_value_at_matches_expansion(self):
        values = [2, 4, 6, 8, 1, 1, 1, 0, 5]
        seq = IntSequence.from_values(values)
        for i, v in enumerate(values):
            assert seq.value_at(i) == v

    def test_value_at_out_of_range(self):
        seq = IntSequence.from_values([1, 2, 3])
        with pytest.raises(IndexError):
            seq.value_at(3)
        with pytest.raises(IndexError):
            seq.value_at(-1)

    def test_activation_of_maps_exec_to_activation(self):
        # counts = [2, 0, 3]: execs 0-1 -> act 0, execs 2-4 -> act 2
        # (the zero-count activation is skipped).
        counts = IntSequence.from_values([2, 0, 3])
        assert [_activation_of(counts, j) for j in range(5)] == [0, 0, 2, 2, 2]
        with pytest.raises(query.QueryError):
            _activation_of(counts, 5)

    def test_activation_of_strided_term(self):
        # counts = [1, 2, 3] is one stride term; prefix sums 0, 1, 3.
        counts = IntSequence.from_values([1, 2, 3])
        assert [_activation_of(counts, j) for j in range(6)] == [0, 1, 1, 2, 2, 2]


# ---------------------------------------------------------------------------
# TreeIndex / paths.


class TestTreeIndex:
    def test_paths_and_depths(self):
        merged = merged_of(RING, 2, {"n": 3})
        index = query.TreeIndex(merged)
        send = leaf_gids(merged, "MPI_Send")[0]
        path = index.path(send)
        assert path.startswith("loop#") and path.endswith(f"MPI_Send@{send}")
        assert index.depth[send] == 2  # root -> loop -> leaf
        assert query.vertex_path(merged, send) == path

    def test_lca(self):
        merged = merged_of(RING, 2, {"n": 3})
        index = query.TreeIndex(merged)
        send = leaf_gids(merged, "MPI_Send")[0]
        recv = leaf_gids(merged, "MPI_Recv")[0]
        lca = index.lca_gid(send, recv)
        assert index.vertex(lca).kind == "loop"
        allreduce = leaf_gids(merged, "MPI_Allreduce")[0]
        assert index.lca_gid(send, allreduce) == merged.root.gid
        assert index.lca_gid(send, send) == send

    def test_unknown_gid_raises(self):
        merged = merged_of(RING, 2, {"n": 2})
        index = query.TreeIndex(merged)
        with pytest.raises(query.QueryError, match="no vertex"):
            index.vertex(10_000)

    def test_non_leaf_gid_raises(self):
        merged = merged_of(RING, 2, {"n": 2})
        index = query.TreeIndex(merged)
        loop_gid = next(
            v.gid for v in merged.root.preorder() if v.kind == "loop"
        )
        with pytest.raises(query.QueryError, match="not an MPI call leaf"):
            index.call_leaf(loop_gid)


# ---------------------------------------------------------------------------
# traffic.


class TestTraffic:
    def test_by_op_exact_counts(self):
        nprocs, n = 4, 5
        merged = merged_of(RING, nprocs, {"n": n})
        t = query.traffic(merged, group_by="op")
        assert t["MPI_Send"] == query.Traffic(
            messages=nprocs * n, nbytes=nprocs * n * 512
        )
        assert t["MPI_Recv"].messages == nprocs * n
        assert t["MPI_Allreduce"].messages == nprocs

    def test_by_vertex_keys_are_gids(self):
        merged = merged_of(RING, 2, {"n": 3})
        t = query.traffic(merged, group_by="vertex")
        assert set(t) == set(leaf_gids(merged))

    def test_rank_pair_is_ring(self):
        nprocs, n = 4, 3
        merged = merged_of(RING, nprocs, {"n": n})
        t = query.traffic(merged, group_by="rank_pair")
        assert set(t) == {(r, (r + 1) % nprocs) for r in range(nprocs)}
        for cell in t.values():
            assert cell == query.Traffic(messages=n, nbytes=n * 512)

    def test_bad_grouping_rejected(self):
        merged = merged_of(RING, 2, {"n": 1})
        with pytest.raises(ValueError, match="unknown traffic grouping"):
            query.traffic(merged, group_by="bogus")
        with pytest.raises(ValueError, match="unknown traffic grouping"):
            query.traffic_via_replay(merged, group_by="bogus")

    def test_out_of_range_peer_dropped_and_counted(self):
        merged = merged_of(RING, 2, {"n": 2})
        send = leaf_gids(merged, "MPI_Send")[0]
        vertex = query.TreeIndex(merged).vertex(send)
        for group in vertex.groups:
            for record in group.records:
                key = list(record.key)
                key[1] = ("rel", 999)  # decodes outside [0, nprocs)
                record.key = tuple(key)
        registry = obs.enable()
        try:
            with pytest.warns(RuntimeWarning, match="out-of-range"):
                t = query.traffic(merged, group_by="rank_pair")
        finally:
            obs.disable()
        assert t == {}  # both directions of the 2-ring went through gid
        assert registry.counters["query.out_of_range_peers"] == 4  # 2 ranks x 2 msgs
        # The damaged trace still matches its oracle: replay decodes the
        # same bogus peer and the oracle applies the same range filter.
        assert t == query.traffic_via_replay(merged, group_by="rank_pair")


# ---------------------------------------------------------------------------
# ordering.


class TestOrdering:
    def test_sequential_structures_are_ordered(self):
        merged = merged_of(SEQUENTIAL, 2)
        allreduce = leaf_gids(merged, "MPI_Allreduce")[0]
        bcast = leaf_gids(merged, "MPI_Bcast")[0]
        barrier = leaf_gids(merged, "MPI_Barrier")[0]
        assert query.ordering(merged, allreduce, bcast, 0).relation == "before"
        assert query.ordering(merged, bcast, barrier, 0).relation == "before"
        r = query.ordering(merged, barrier, allreduce, 1)
        assert r.relation == "after"
        assert (r.count_a, r.count_b) == (1, 1)

    def test_same_loop_body_alternates(self):
        merged = merged_of(ALTERNATING, 2)
        allreduce = leaf_gids(merged, "MPI_Allreduce")[0]
        bcast = leaf_gids(merged, "MPI_Bcast")[0]
        r = query.ordering(merged, allreduce, bcast, 0)
        # 6 iterations interleave allreduce/bcast events.
        assert r.relation == "interleaved"
        assert (r.count_a, r.count_b) == (6, 6)

    def test_loop_precedes_post_loop_branch(self):
        merged = merged_of(ALTERNATING, 2)
        bcast = leaf_gids(merged, "MPI_Bcast")[0]
        send = leaf_gids(merged, "MPI_Send")[0]
        assert query.ordering(merged, bcast, send, 0).relation == "before"

    def test_one_sided_and_empty(self):
        merged = merged_of(ALTERNATING, 2)
        allreduce = leaf_gids(merged, "MPI_Allreduce")[0]
        send = leaf_gids(merged, "MPI_Send")[0]
        # Only rank 0 takes the branch.
        assert query.ordering(merged, send, allreduce, 1).relation == "only-b"
        assert query.ordering(merged, allreduce, send, 1).relation == "only-a"
        recv = leaf_gids(merged, "MPI_Recv")[0]
        assert query.ordering(merged, send, recv, 1).relation == "neither"

    def test_same_gid_interleaved(self):
        merged = merged_of(SEQUENTIAL, 2)
        bcast = leaf_gids(merged, "MPI_Bcast")[0]
        assert query.ordering(merged, bcast, bcast, 0).relation == "interleaved"

    def test_non_leaf_rejected(self):
        merged = merged_of(RING, 2, {"n": 2})
        loop_gid = next(
            v.gid for v in merged.root.preorder() if v.kind == "loop"
        )
        leaf = leaf_gids(merged)[0]
        with pytest.raises(query.QueryError):
            query.ordering(merged, loop_gid, leaf, 0)


# ---------------------------------------------------------------------------
# rank_profile / critical_leaves.


class TestProfiles:
    def test_rank_profile_counts(self):
        nprocs, n = 4, 5
        merged = merged_of(RING, nprocs, {"n": n})
        p = query.rank_profile(merged, 0)
        assert p.ops["MPI_Send"].calls == n
        assert p.ops["MPI_Send"].nbytes == n * 512
        assert p.ops["MPI_Allreduce"].calls == 1
        # Init + n sends + n recvs + allreduce + finalize.
        assert p.events == 2 * n + 3

    def test_rank_profile_absent_rank_is_empty(self):
        # A rank of the job that recorded nothing (one outside the job
        # is refused: below).
        merged = merged_of(PAIR_ONLY, 18)
        assert query.rank_count(merged) == 2
        p = query.rank_profile(merged, 17)
        assert p.events == 0 and p.ops == {}

    @pytest.mark.parametrize("rank", [-1, 2])
    def test_rank_outside_the_trace_raises(self, rank):
        merged = merged_of(RING, 2, {"n": 2})
        send = leaf_gids(merged, "MPI_Send")[0]
        message = rf"rank {rank} outside \[0, 2\)"
        with pytest.raises(query.QueryError, match=message):
            query.rank_profile(merged, rank)
        with pytest.raises(query.QueryError, match=message):
            query.ordering(merged, send, send, rank)

    def test_critical_leaves_paths_and_order(self):
        merged = merged_of(RING, 4, {"n": 5})
        leaves = query.critical_leaves(merged, k=100)
        assert leaves == sorted(leaves, key=lambda c: (-c.total_us, c.gid))
        assert leaves == rank_leaves(list(reversed(leaves)), 100)
        by_op = {c.op for c in leaves}
        assert {"MPI_Send", "MPI_Recv", "MPI_Allreduce"} <= by_op
        for c in leaves:
            assert c.path.endswith(f"{c.op}@{c.gid}")

    def test_rank_leaves_ties_within_tolerance_break_to_lower_gid(self):
        def leaf(gid, total):
            return CriticalLeaf(gid=gid, op="MPI_Send", depth=1, calls=1,
                                total_us=total, path=f"MPI_Send@{gid}")

        big = 1234.5
        leaves = [
            leaf(9, big * (1 + 2e-13)), leaf(4, big), leaf(7, big * (1 - 2e-13)),
            leaf(2, big * (1 - 1e-6)),  # a real difference, not a tie
            leaf(3, 0.0), leaf(1, 1e-12),  # abs tolerance near zero
        ]
        assert [c.gid for c in rank_leaves(leaves, 10)] == [4, 7, 9, 2, 1, 3]
        assert [c.gid for c in rank_leaves(leaves, 2)] == [4, 7]

    def test_critical_leaves_k_truncates(self):
        merged = merged_of(RING, 4, {"n": 5})
        assert len(query.critical_leaves(merged, k=2)) == 2

    def test_rank_count(self):
        assert query.rank_count(merged_of(RING, 4, {"n": 1})) == 4


# ---------------------------------------------------------------------------
# Observability wiring.


class TestObs:
    def test_query_counters_and_spans(self):
        merged = merged_of(RING, 2, {"n": 3})
        leaf = leaf_gids(merged)[0]
        registry = obs.enable()
        try:
            query.traffic(merged)
            query.ordering(merged, leaf, leaf, 0)
            query.rank_profile(merged, 0)
            query.critical_leaves(merged, k=3)
        finally:
            obs.disable()
        assert registry.counters["query.calls"] == 4
        assert registry.counters["query.vertices"] > 0
        assert registry.counters["query.records"] > 0
        span_names = {s["name"] for s in registry.spans}
        for name in ("query.traffic", "query.ordering",
                     "query.rank_profile", "query.critical_leaves"):
            assert name in span_names
