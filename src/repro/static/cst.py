"""The Communication Structure Tree (CST) — paper §III.

The CST is an *ordered* tree extracted at compile time:

* leaf vertices are MPI communication invocations (and, in intermediate
  per-procedure trees, user-defined function calls awaiting inlining);
* non-leaf vertices are program control structures: ``loop`` and ``branch``;
* a virtual ``root`` vertex connects the first-level vertices;
* every vertex carries a unique global id (GID) assigned in pre-order, so a
  pre-order traversal of the CST matches the static program structure.

Branch handling follows the paper's Algorithm 1: *"for each path insert a
branch vertex"* — an ``if``/``else`` contributes one branch vertex per path
(``branch_path`` 0 = then, 1 = else), siblings in source order.  Empty
paths disappear during pruning.

The tree also records, per vertex, the AST node id of the originating
control structure or call (``ast_id``).  This is the compile-time link the
instrumentation pass uses: at runtime a cursor walks the mirrored CTT, and
marker events identified by ``ast_id`` (plus branch path) resolve the
cursor's next vertex among the current vertex's children.  Because
functions are inlined into the CST at every call site, the same ``ast_id``
may appear in several subtrees; the cursor's *parent context* plus ordered
left-to-right matching disambiguates (see
:class:`repro.core.intra.IntraProcessCompressor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

ROOT = "root"
LOOP = "loop"
BRANCH = "branch"
CALL = "call"  # MPI invocation leaf
FUNC = "func"  # user-defined function leaf (intermediate trees only)

_KINDS = (ROOT, LOOP, BRANCH, CALL, FUNC)


@dataclass
class CSTNode:
    kind: str
    ast_id: int | None = None
    name: str | None = None  # callee name for call/func leaves
    line: int = 0
    branch_path: int | None = None  # for branch vertices: 0 = then, 1 = else
    gid: int = -1  # assigned in pre-order by assign_gids()
    children: list["CSTNode"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown CST vertex kind {self.kind!r}")

    # -- traversal ---------------------------------------------------------

    def preorder(self) -> Iterator["CSTNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def size(self) -> int:
        return sum(1 for _ in self.preorder())

    def preorder_with_parent(
        self,
    ) -> Iterator[tuple["CSTNode", "CSTNode | None"]]:
        """Pre-order traversal yielding ``(node, parent)`` pairs — the
        walk the invariant checker uses to validate parent/child arity
        without materializing a parent map."""
        stack: list[tuple[CSTNode, CSTNode | None]] = [(self, None)]
        while stack:
            node, parent = stack.pop()
            yield node, parent
            for child in reversed(node.children):
                stack.append((child, node))

    def leaves(self) -> Iterator["CSTNode"]:
        for node in self.preorder():
            if not node.children and node.kind in (CALL, FUNC):
                yield node

    # -- structure ----------------------------------------------------------

    def copy(self) -> "CSTNode":
        return CSTNode(
            kind=self.kind,
            ast_id=self.ast_id,
            name=self.name,
            line=self.line,
            branch_path=self.branch_path,
            gid=self.gid,
            children=[c.copy() for c in self.children],
        )

    def structurally_equal(self, other: "CSTNode") -> bool:
        """Equality on everything except GIDs (used by merge sanity checks)."""
        if (
            self.kind != other.kind
            or self.ast_id != other.ast_id
            or self.name != other.name
            or self.branch_path != other.branch_path
            or len(self.children) != len(other.children)
        ):
            return False
        return all(a.structurally_equal(b) for a, b in zip(self.children, other.children))

    def pretty(self, indent: int = 0) -> str:
        label = self.kind
        if self.name:
            label += f" {self.name}"
        if self.branch_path is not None:
            label += f" path={self.branch_path}"
        lines = [f"{'  ' * indent}{self.gid}:{label}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


def assign_gids(root: CSTNode) -> None:
    """Assign pre-order GIDs starting from 0 at the root (paper §III-A)."""
    for gid, node in enumerate(root.preorder()):
        node.gid = gid


def branch_groups(children: list) -> list[range]:
    """The child positions of each branch group among ``children``: a
    run of consecutive BRANCH vertices of one ``if`` (one per path),
    ended by a non-branch sibling, another ``ast_id`` or a repeated
    ``branch_path`` (the next inlined copy of the same ``if``).  The one
    rule for CST, CTT and merged vertices alike: the compressor's
    cursor (:class:`repro.core.ctt.CTTShape`) and the replay and
    invariant walks (``repro.core.decompress._compile``) must agree."""
    groups: list[range] = []
    paths: set = set()
    for pos, child in enumerate(children):
        if child.kind != BRANCH:
            paths = set()
        elif (
            paths
            and children[pos - 1].ast_id == child.ast_id
            and child.branch_path not in paths
        ):
            paths.add(child.branch_path)
            groups[-1] = range(groups[-1].start, pos + 1)
        else:
            paths = {child.branch_path}
            groups.append(range(pos, pos + 1))
    return groups


def prune(root: CSTNode) -> CSTNode:
    """Pruning pass (paper §III-B): iteratively delete leaf vertices that are
    not MPI invocations until every leaf is an MPI invocation.

    The root itself always survives, even for a program with no MPI calls.
    Returns ``root`` for chaining.  GIDs must be (re-)assigned afterwards.
    """
    changed = True
    while changed:
        changed = False
        # Iterative DFS, pruning bottom-up within a single pass.
        stack: list[tuple[CSTNode, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if not processed:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
            else:
                before = len(node.children)
                node.children = [
                    c for c in node.children if c.children or c.kind == CALL
                ]
                if len(node.children) != before:
                    changed = True
    return root
