"""Python-frontend tests (annotated rank functions, declared structure)."""

import pytest

from repro.core.errors import StreamMismatchError
from repro.frontend import S, StructureError, build_structure, run_python
from repro.mpisim import RecordingSink
from repro.static.cst import BRANCH, CALL, LOOP


def assert_exact(run, rec, nprocs):
    for r in range(nprocs):
        truth = [e.replay_tuple() for e in rec.events.get(r, [])]
        got = [e.call_tuple() for e in run.replay(r)]
        assert got == truth, r


class TestStructureBuilder:
    def test_simple_tree(self):
        built = build_structure(
            S.root(S.call("mpi_init"), S.loop("l", S.call("mpi_barrier")))
        )
        kinds = [n.kind for n in built.cst.preorder()]
        assert kinds == ["root", CALL, LOOP, CALL]
        assert [n.gid for n in built.cst.preorder()] == [0, 1, 2, 3]

    def test_branch_with_else(self):
        built = build_structure(
            S.root(
                S.branch("b", S.call("mpi_send"),
                         orelse=(S.call("mpi_recv"),))
            )
        )
        branches = [n for n in built.cst.preorder() if n.kind == BRANCH]
        assert [b.branch_path for b in branches] == [0, 1]
        assert branches[0].ast_id == branches[1].ast_id

    def test_shared_labels_reuse_ids(self):
        built = build_structure(
            S.root(
                S.loop("outer", S.branch("b", S.call("mpi_send"))),
                S.branch("b", S.call("mpi_recv")),
            )
        )
        assert len(built.label_ids) == 2

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(StructureError):
            S.call("mpi_frobnicate")

    def test_unlabelled_loop_rejected(self):
        with pytest.raises(StructureError):
            build_structure(S.root(S.loop("", S.call("mpi_barrier"))))

    def test_non_root_top_rejected(self):
        with pytest.raises(StructureError):
            build_structure(S.loop("l", S.call("mpi_barrier")))


class TestTracing:
    SPEC = S.root(
        S.loop("steps",
               S.branch("right", S.call("mpi_send")),
               S.branch("left", S.call("mpi_recv"))),
        S.call("mpi_allreduce"),
    )

    @staticmethod
    def rank_main(tc):
        rank, size = tc.rank, tc.size
        for _ in tc.loop("steps", range(10)):
            with tc.branch_scope("right", rank < size - 1) as taken:
                if taken:
                    yield from tc.mpi("mpi_send", rank + 1, 1024, 0)
            with tc.branch_scope("left", rank > 0) as taken:
                if taken:
                    yield from tc.mpi("mpi_recv", rank - 1, 1024, 0)
            tc.compute(50)
        yield from tc.mpi("mpi_allreduce", 8)

    def test_replay_exact(self):
        rec = RecordingSink()
        run = run_python(self.rank_main, self.SPEC, 6, extra_sinks=[rec])
        assert_exact(run, rec, 6)

    def test_compression_effective(self):
        run = run_python(self.rank_main, self.SPEC, 6)
        # 10 iterations merge into single records per leaf.
        for v in run.compressor.ctt(1).preorder():
            if v.records:
                assert len(v.records) == 1

    def test_rank_groups_across_ranks(self):
        run = run_python(self.rank_main, self.SPEC, 6)
        merged = run.merge()
        sends = [
            v for v in merged.root.preorder()
            if v.kind == CALL and v.op == "MPI_Send"
        ]
        (send,) = sends
        (group,) = send.groups
        assert group.ranks == [0, 1, 2, 3, 4]

    def test_budgeted_deferred_bytes_match_inline(self):
        from repro.core import serialize
        from repro.core.intra import CypressConfig

        inline = run_python(self.rank_main, self.SPEC, 6)
        budgeted = run_python(
            self.rank_main, self.SPEC, 6,
            config=CypressConfig(memory_budget_bytes=1),
        )
        try:
            # rank_main never calls mpi_finalize, so no rank is sealed
            # during the run: merge() is where all six fold.
            assert serialize.dumps(budgeted.merge()) == serialize.dumps(
                inline.merge()
            )
            assert budgeted.compressor.budget_counters.folds == 6
        finally:
            budgeted.compressor.close_spill()

    def test_trace_file_roundtrip(self, tmp_path):
        from repro.core import serialize
        from repro.core.decompress import decompress_merged_rank

        rec = RecordingSink()
        run = run_python(self.rank_main, self.SPEC, 4, extra_sinks=[rec])
        path = str(tmp_path / "py.cyp")
        run.save(path, gzip=True)
        back = serialize.load(path)
        for r in range(4):
            truth = [e.replay_tuple() for e in rec.events[r]]
            got = [e.call_tuple() for e in decompress_merged_rank(back, r)]
            assert got == truth


class TestValidation:
    def test_undeclared_label_raises(self):
        spec = S.root(S.call("mpi_barrier"))

        def rank_main(tc):
            for _ in tc.loop("mystery", range(2)):
                yield from tc.mpi("mpi_barrier")

        with pytest.raises(StructureError):
            run_python(rank_main, spec, 2)

    def test_undeclared_call_raises(self):
        spec = S.root(S.call("mpi_barrier"))

        def rank_main(tc):
            yield from tc.mpi("mpi_allreduce", 8)

        with pytest.raises(StreamMismatchError):
            run_python(rank_main, spec, 2)

    def test_nonblocking_requests_supported(self):
        spec = S.root(
            S.loop("l",
                   S.call("mpi_irecv"), S.call("mpi_isend"),
                   S.call("mpi_waitall")),
        )

        def rank_main(tc):
            peer = 1 - tc.rank
            for _ in tc.loop("l", range(5)):
                r1 = yield from tc.mpi("mpi_irecv", peer, 256, 0)
                r2 = yield from tc.mpi("mpi_isend", peer, 256, 0)
                yield from tc.mpi("mpi_waitall", [r1, r2], 2)

        rec = RecordingSink()
        run = run_python(rank_main, spec, 2, extra_sinks=[rec])
        assert_exact(run, rec, 2)

    def test_compute_negative_rejected(self):
        spec = S.root(S.call("mpi_barrier"))

        def rank_main(tc):
            tc.compute(-1)
            yield from tc.mpi("mpi_barrier")

        with pytest.raises(ValueError):
            run_python(rank_main, spec, 1)
