"""CST construction tests, including the paper's own examples."""

import pytest

from repro.minilang.builtins import make_classifier
from repro.minilang.cfg import build_cfg
from repro.minilang.parser import parse
from repro.static import cst as C
from repro.static.intra import build_intra_cst

# The paper's Figure 5 program, transliterated to MiniMPI.
FIG5 = """
func main() {
  for (var i = 0; i < k; i = i + 1) {
    if (myid % 2 == 0) {
      mpi_send(myid + 1, size, 0);
    } else {
      mpi_recv(myid - 1, size, 0);
    }
    bar();
  }
  foo();
  if (myid % 2 == 0) {
    mpi_reduce(0, 4);
  }
}
func bar() {
  for (var kk = 0; kk < n; kk = kk + 1) {
    mpi_bcast(0, 64);
  }
}
func foo() {
  var sum = 0;
  for (var j = 0; j < m; j = j + 1) {
    sum = sum + j;
  }
}
"""


def intra_cst(source: str, func: str = "main"):
    program = parse(source)
    cfg = build_cfg(program.functions[func])
    return build_intra_cst(cfg, make_classifier(program))


def shape(node: C.CSTNode):
    """(kind/name, children shapes) — structure with noise stripped."""
    label = node.kind if node.kind != C.CALL else node.name
    if node.kind == C.FUNC:
        label = f"func:{node.name}"
    return (label, tuple(shape(c) for c in node.children))


class TestIntraProcedural:
    def test_figure6_main_structure(self):
        """Paper Fig. 6: intra-procedural CST of main."""
        tree = intra_cst(FIG5)
        assert shape(tree) == (
            "root",
            (
                ("loop", (
                    ("branch", (("mpi_send", ()),)),
                    ("branch", (("mpi_recv", ()),)),
                    ("func:bar", ()),
                )),
                ("func:foo", ()),
                ("branch", (("mpi_reduce", ()),)),
                ("branch", ()),  # empty else path, pruned later
            ),
        )

    def test_bar_intra_cst(self):
        tree = intra_cst(FIG5, "bar")
        assert shape(tree) == ("root", (("loop", (("mpi_bcast", ()),)),))

    def test_procedure_without_calls_is_bare_root(self):
        tree = intra_cst(FIG5, "foo")
        pruned = C.prune(tree.copy())
        assert pruned.children == []

    def test_sequential_structures_ordered(self):
        tree = intra_cst(
            "func main() { mpi_barrier(); for (;x;) { mpi_send(1, 4, 0); } "
            "mpi_reduce(0, 4); }"
        )
        labels = [shape(c)[0] for c in tree.children]
        assert labels == ["mpi_barrier", "loop", "mpi_reduce"]

    def test_branch_vertex_per_path(self):
        tree = intra_cst(
            "func main() { if (x) { mpi_send(1, 4, 0); } else { mpi_recv(1, 4, 0); } }"
        )
        kinds = [(c.kind, c.branch_path) for c in tree.children]
        assert kinds == [(C.BRANCH, 0), (C.BRANCH, 1)]

    def test_loop_condition_calls_become_loop_children(self):
        tree = intra_cst("func main() { while (check()) { mpi_barrier(); } }",)
        # `check` is neither MPI nor user-defined -> ignored; barrier inside.
        (loop,) = tree.children
        assert shape(loop) == ("loop", (("mpi_barrier", ()),))

    def test_else_if_chain(self):
        tree = intra_cst(
            "func main() { if (a) { mpi_send(1,4,0); } else if (b) "
            "{ mpi_recv(1,4,0); } else { mpi_reduce(0,4); } }"
        )
        # outer branch path 1 contains the inner branch pair
        outer0, outer1 = tree.children
        assert shape(outer0) == ("branch", (("mpi_send", ()),))
        inner = outer1.children
        assert [shape(c)[0] for c in inner] == ["branch", "branch"]


class TestPruning:
    def test_prune_removes_non_mpi_leaves(self):
        tree = intra_cst(
            "func main() { if (x) { compute(1); } else { mpi_send(1, 4, 0); } }"
        )
        C.prune(tree)
        assert shape(tree) == ("root", (("branch", (("mpi_send", ()),)),))

    def test_prune_removes_empty_loops_iteratively(self):
        tree = intra_cst(
            "func main() { for (;x;) { for (;y;) { compute(1); } } mpi_barrier(); }"
        )
        C.prune(tree)
        assert shape(tree) == ("root", (("mpi_barrier", ()),))

    def test_prune_keeps_root_even_when_empty(self):
        tree = intra_cst("func main() { var x = 1; }")
        C.prune(tree)
        assert tree.kind == C.ROOT


class TestGids:
    def test_preorder_gids(self):
        tree = intra_cst(FIG5)
        C.prune(tree)
        C.assign_gids(tree)
        gids = [n.gid for n in tree.preorder()]
        assert gids == list(range(len(gids)))


def siblings(*spec):
    """Children from ``(ast_id, branch_path)`` pairs; ``None`` is a
    call leaf."""
    return [
        C.CSTNode(C.CALL, name="mpi_barrier") if item is None
        else C.CSTNode(C.BRANCH, ast_id=item[0], branch_path=item[1])
        for item in spec
    ]


class TestBranchGroups:
    def test_a_run_ends_at_a_repeat_a_sibling_or_another_if(self):
        kids = siblings(
            (7, 0), (7, 1), (7, 0), (7, 1), None, (7, 1), (8, 0), (8, 1),
            (7, 0),
        )
        assert C.branch_groups(kids) == [
            range(0, 2), range(2, 4), range(5, 6), range(6, 8), range(8, 9),
        ]

    def test_no_branch_no_group(self):
        assert C.branch_groups([]) == []
        assert C.branch_groups(siblings(None, None)) == []

    def test_figure5_paths_group_per_if(self):
        tree = intra_cst(FIG5)
        C.prune(tree)
        loop = tree.children[0]
        assert C.branch_groups(loop.children) == [range(0, 2)]
        assert C.branch_groups(tree.children) == [range(1, 2)]  # foo() pruned


class TestNodeBasics:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            C.CSTNode(kind="bogus")

    def test_copy_is_deep(self):
        tree = intra_cst(FIG5)
        dup = tree.copy()
        dup.children[0].children.clear()
        assert tree.children[0].children  # original untouched

    def test_size_counts_vertices(self):
        tree = intra_cst("func main() { mpi_barrier(); }")
        assert tree.size() == 2
