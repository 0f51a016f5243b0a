"""Declarative communication-structure specs for Python rank functions.

MiniMPI programs get their CST from static analysis; Python rank
functions cannot be analysed that way, so the user *declares* the
structure — which mirrors their code shape — and the runtime validates it
while tracing (a marker that doesn't fit the declared tree raises
:class:`~repro.core.errors.StreamMismatchError`).

This is exactly how one would retrofit CYPRESS onto mpi4py programs: a
PMPI-style wrapper plus lightweight loop/branch annotations.

Example::

    spec = S.root(
        S.call("mpi_init"),
        S.loop("steps",
               S.branch("has_right", S.call("mpi_send")),
               S.branch("has_left", S.call("mpi_recv"))),
        S.call("mpi_finalize"),
    )
    cst = spec.build()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.minilang.builtins import MPI_INTRINSICS
from repro.static.cst import BRANCH, CALL, LOOP, ROOT, CSTNode, assign_gids

# Synthetic ast_id namespace for frontend structures (far above both the
# parser's node ids and the recursion pseudo-loop offset).
_FRONTEND_OFFSET = 10_000_000


@dataclass
class Spec:
    kind: str
    label: str | None = None  # loop/branch label (the runtime marker key)
    name: str | None = None  # intrinsic name for calls
    children: list["Spec"] = field(default_factory=list)
    else_children: list["Spec"] = field(default_factory=list)


class StructureError(Exception):
    """The declared structure is malformed."""


class S:
    """Builders for structure specs."""

    @staticmethod
    def root(*children: Spec) -> Spec:
        return Spec(kind=ROOT, children=list(children))

    @staticmethod
    def loop(label: str, *children: Spec) -> Spec:
        return Spec(kind=LOOP, label=label, children=list(children))

    @staticmethod
    def branch(label: str, *children: Spec, orelse: tuple[Spec, ...] = ()) -> Spec:
        return Spec(
            kind=BRANCH, label=label,
            children=list(children), else_children=list(orelse),
        )

    @staticmethod
    def call(name: str) -> Spec:
        if name not in MPI_INTRINSICS:
            raise StructureError(f"{name!r} is not a traced MPI intrinsic")
        return Spec(kind=CALL, name=name)


@dataclass
class BuiltStructure:
    """A structure spec lowered to a CST plus the label → ast_id map."""

    cst: CSTNode
    label_ids: dict[str, int]
    instrumented: frozenset[int]


def build_structure(spec: Spec) -> BuiltStructure:
    """Lower a spec into a GID-assigned CST (no pruning: the user declares
    only communication-relevant structure)."""
    if spec.kind != ROOT:
        raise StructureError("top-level spec must be S.root(...)")
    label_ids: dict[str, int] = {}
    next_id = [_FRONTEND_OFFSET]

    def ast_id_for(label: str) -> int:
        if label in label_ids:
            return label_ids[label]
        next_id[0] += 1
        label_ids[label] = next_id[0]
        return next_id[0]

    def lower(node: Spec) -> list[CSTNode]:
        if node.kind == CALL:
            return [CSTNode(kind=CALL, name=node.name)]
        if node.kind == LOOP:
            if not node.label:
                raise StructureError("loops need a label")
            out = CSTNode(kind=LOOP, ast_id=ast_id_for(node.label))
            for child in node.children:
                out.children.extend(lower(child))
            return [out]
        if node.kind == BRANCH:
            if not node.label:
                raise StructureError("branches need a label")
            ast_id = ast_id_for(node.label)
            then_v = CSTNode(kind=BRANCH, ast_id=ast_id, branch_path=0)
            for child in node.children:
                then_v.children.extend(lower(child))
            out = [then_v]
            if node.else_children:
                else_v = CSTNode(kind=BRANCH, ast_id=ast_id, branch_path=1)
                for child in node.else_children:
                    else_v.children.extend(lower(child))
                out.append(else_v)
            return out
        raise StructureError(f"unexpected spec kind {node.kind!r}")

    root = CSTNode(kind=ROOT, name="<python>")
    for child in spec.children:
        root.children.extend(lower(child))
    assign_gids(root)
    instrumented = frozenset(
        n.ast_id for n in root.preorder()
        if n.kind in (LOOP, BRANCH) and n.ast_id is not None
    )
    return BuiltStructure(cst=root, label_ids=label_ids, instrumented=instrumented)
