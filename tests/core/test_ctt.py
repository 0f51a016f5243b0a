"""CTT structure tests: mirroring, branch groups, and the cursor helpers
of the spec compressor (``tests/spec_compress.py``) on a CTT's children."""

import sys

from repro.analysis.stats import _container_estimate
from repro.core.ctt import CTT
from repro.static.cst import BRANCH, CALL, LOOP, ROOT
from repro.static.instrument import compile_minimpi

sys.path.insert(0, "tests")
from spec_compress import find_child, find_group  # noqa: E402

SRC = """
func main() {
  mpi_init();
  for (var i = 0; i < 3; i = i + 1) {
    if (i % 2 == 0) { mpi_send(0, 8, 0); } else { mpi_recv(0, 8, 0); }
    exchange();
    exchange();
  }
  mpi_finalize();
}
func exchange() {
  mpi_barrier();
}
"""


def build():
    compiled = compile_minimpi(SRC)
    return compiled, CTT(compiled.cst, rank=0)


class TestMirroring:
    def test_same_vertex_count_as_cst(self):
        compiled, ctt = build()
        assert ctt.vertex_count() == compiled.cst.size()

    def test_same_gids_preorder(self):
        compiled, ctt = build()
        assert [v.gid for v in ctt.preorder()] == [
            n.gid for n in compiled.cst.preorder()
        ]

    def test_payload_slots_by_kind(self):
        _, ctt = build()
        for v in ctt.preorder():
            assert (v.loop_counts is not None) == (v.kind == LOOP)
            assert (v.visits is not None) == (v.kind == BRANCH)
            assert (v.records is not None) == (v.kind == CALL)
            assert (v.params_index is not None) == (v.kind == CALL)

    def test_op_names_resolved(self):
        _, ctt = build()
        ops = {v.op for v in ctt.preorder() if v.kind == CALL}
        assert ops == {"MPI_Init", "MPI_Send", "MPI_Recv", "MPI_Barrier",
                       "MPI_Finalize"}

    def test_vertex_lookup_by_gid(self):
        _, ctt = build()
        for v in ctt.preorder():
            assert ctt.vertex(v.gid) is v


def _groups(vertex):
    """The branch groups of ``vertex``'s shape node, in child order."""
    groups = [g for gs in vertex.group_by_ast_id.values() for g in gs]
    return sorted(groups, key=lambda g: g.number)


class TestBranchGroups:
    def test_paths_grouped(self):
        _, ctt = build()
        loop = next(v for v in ctt.preorder() if v.kind == LOOP)
        assert len(_groups(loop)) == 1
        (group,) = _groups(loop)
        assert sorted(group.paths) == [0, 1]
        assert group.last_index == group.first_index + 1
        assert loop.group_visits == [0]

    def test_find_group_by_ast_id(self):
        _, ctt = build()
        loop = next(v for v in ctt.preorder() if v.kind == LOOP)
        (group,) = _groups(loop)
        assert loop.group_by_ast_id == {group.ast_id: (group,)}
        assert find_group(loop, group.ast_id, 0) == (
            group.ast_id, group.first_index, group.last_index,
            {path: loop.children[pos] for path, pos in group.paths.items()},
        )
        assert find_group(loop, 999999, 0) is None

    def test_root_has_no_groups(self):
        _, ctt = build()
        assert _groups(ctt.root) == []
        assert ctt.root.group_visits == ()


class TestFindChild:
    @staticmethod
    def _barrier(c):
        return c.kind == CALL and c.op == "MPI_Barrier"

    def test_ordered_search(self):
        _, ctt = build()
        loop = next(v for v in ctt.preorder() if v.kind == LOOP)
        # two inlined exchange() copies -> two barrier leaves
        barriers = [c for c in loop.children if c.op == "MPI_Barrier"]
        assert len(barriers) == 2
        first, idx1 = find_child(loop, self._barrier, 0)
        second, idx2 = find_child(loop, self._barrier, idx1 + 1)
        assert first is barriers[0] and second is barriers[1]

    def test_wraparound(self):
        _, ctt = build()
        loop = next(v for v in ctt.preorder() if v.kind == LOOP)
        barriers = [c for c in loop.children if c.op == "MPI_Barrier"]
        # Start past the end: wraps to the beginning.
        found, idx = find_child(loop, self._barrier, len(loop.children))
        assert found is barriers[0] and loop.children[idx] is found

    def test_no_match(self):
        _, ctt = build()
        assert find_child(ctt.root, lambda c: c.kind == "nope", 0) is None


class TestSizeAccounting:
    def test_empty_ctt_small(self):
        _, ctt = build()
        assert 0 < _container_estimate(ctt) < 500

    def test_record_count_zero_before_tracing(self):
        _, ctt = build()
        assert ctt.record_count() == 0
