"""The Compressed Trace Tree (CTT) — paper §IV.

The CTT mirrors the CST: same vertices, same edges, same GIDs.  Each
vertex additionally carries the runtime payload the dynamic module fills
in:

* loop vertices — the iteration-count sequence, one entry per activation
  (nested loops activate once per enclosing iteration, paper Fig. 10);
* branch-path vertices — the visit indices at which the path was taken,
  stride-compressed (paper Fig. 11);
* leaf vertices — the list of :class:`CompressedRecord`s.

Vertices also hold the transient cursor state used during on-the-fly
compression (ordered child matching position, visit counters).  Branch
*groups* — the sibling path-vertices of one source-level ``if`` — share a
visit counter, precomputed per parent.

Shape and fill
--------------

Everything the CST fixes — identity fields, child order, which children
a marker or an op can dispatch to, how sibling branch paths group — is
extracted once per program into a :class:`CTTShape`.  A rank's
:class:`CTT` is a flat pre-order *fill* of that shape: one vertex object
per shape node, then the per-rank tables of the vertices that have
children.  The static module runs once (paper §III); only payload and
cursor state are per rank.

Hot-path dispatch tables
------------------------

Cursor moves are the per-marker/per-event cost the paper budgets at O(1),
so child lookup must not scan the generic child list with a predicate.
Every vertex with children carries *monomorphic* dispatch tables —
``loop_child_by_ast_id``, ``call_children_by_op`` and ``group_by_ast_id``
— mapping the marker/event identity straight to the (few) candidate
children, as ``(child_index, child)`` pairs in ascending child order.
The shape holds them as child *positions*; the fill binds them to the
rank's vertex objects.  A vertex without children shares immutable empty
tables (and an empty ``children`` tuple) with every other one, so a
stray write raises instead of aliasing.
The ordered wrap-around semantics ("first candidate at or after
``search_pos``, else the first candidate overall") is thereby a scan over
a list that is almost always length 1, instead of a closure applied to
every sibling.

An MPI event skips even that when the program runs its calls in source
order: the compressor first tries the child *at* ``search_pos`` and
consults ``call_children_by_op`` only when that is not the event's leaf.

Leaf vertices additionally carry the record caches the intra-process
compressor probes before it builds a key (``last_params``/
``last_record``, then ``params_index``; see :mod:`repro.core.intra`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.minilang.builtins import MPI_INTRINSICS
from repro.mpisim.events import NONBLOCKING_OPS
from repro.static.cst import BRANCH, CALL, LOOP, ROOT, CSTNode

from .records import CompressedRecord
from .sequences import IntSequence

# ---------------------------------------------------------------------------
# CPython live-memory cost model (64-bit).  Deliberately coarse: the
# budget trigger needs to track the real footprint to within a small
# factor, not byte-perfectly — but it must *see* the transient state
# (record and params indexes) that the serialized-size estimate
# ignores, because under budget pressure that state dominates.
_PTR = 8
_VERTEX_BASE = 360       # CTTVertex slots + payload containers (a flat
                         # average: parents also own tables, leaves none)
_SEQ_BASE = 120          # IntSequence object + terms list header
_SEQ_LIVE_FACTOR = 3     # boxed terms vs packed varint estimate
_DICT_ENTRY = 104        # amortized dict slot (hash + key + value + growth)
_LIST_BASE = 64
# One ``params_index`` entry: the 11-field parameter tuple only the
# index keeps alive (144 B; its elements are the key's) plus its dict
# slot — tracemalloc says 158 B an entry on sp, 177-186 on cg / mg.
_PARAMS_ENTRY = 160


class _EmptyTable(Mapping):
    """An always-empty dispatch table with no way to write to it, whose
    deep copy is itself (``copy.deepcopy(ctt)`` must keep sharing it)."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __deepcopy__(self, memo) -> "_EmptyTable":
        return self


# What a vertex without children holds in place of a child list and
# tables of its own.  Shared by every such vertex of every rank, so
# immutable: a stray write raises instead of aliasing.
_EMPTY: tuple = ()
_EMPTY_TABLE = _EmptyTable()


def _bind(table: tuple, children: list) -> dict:
    """A shape dispatch table — ``(identity, child positions)`` items —
    bound to one rank's child objects: ``identity -> [(position, child),
    ...]`` in ascending position."""
    return {
        identity: [(pos, children[pos]) for pos in positions]
        for identity, positions in table
    }


@dataclass(slots=True)
class BranchGroup:
    """Sibling branch-path vertices of one ``if`` under one parent."""

    ast_id: int
    first_index: int  # child index of the first path vertex
    last_index: int  # child index of the last path vertex
    paths: dict[int, "CTTVertex"] = field(default_factory=dict)
    visit_counter: int = 0  # runtime state


class CTTVertex:
    """One vertex of one rank's tree.  Built only by
    :meth:`CTTShape.fill`, which sets every slot."""

    __slots__ = (
        "gid",
        "kind",
        "ast_id",
        "name",
        "op",
        "branch_path",
        "children",
        "loop_counts",
        "visits",
        "records",
        # key -> record, for unbounded (position-independent) merging
        "record_index",
        "branch_groups",
        "search_pos",
        "leaf_visits",
        # monomorphic dispatch tables (fixed after construction)
        "loop_child_by_ast_id",
        "call_children_by_op",
        "group_by_ast_id",
        # does this leaf's op create a request?  (Spares the per-event
        # frozenset membership test on the hot path.)
        "op_nonblocking",
        # record caches in front of ``record_index`` (leaf vertices;
        # transient compression state, unbounded window only): the last
        # event's key-relevant parameters as one tuple with the record
        # they committed to, and every parameter tuple seen -> its record
        "last_params",
        "last_record",
        "params_index",
    )

    # ------------------------------------------------------------------

    def preorder(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find_loop_child(self, ast_id: int, start: int) -> tuple[int, "CTTVertex"] | None:
        """Ordered wrap-around lookup of a loop child: ``(child index,
        child)`` of the first candidate at child index >= ``start``, else
        of the first candidate — a dict probe and a scan of the (usually
        one) candidates, without a closure or a sibling scan."""
        lst = self.loop_child_by_ast_id.get(ast_id)
        if lst is None:
            return None
        for pair in lst:
            if pair[0] >= start:
                return pair
        return lst[0]

    # ------------------------------------------------------------------

    def serialized_bytes(self) -> int:
        """Serialized size estimate of this vertex's payload + topology
        (what the on-disk container would take — NOT the live footprint;
        see :meth:`live_bytes` for that)."""
        total = 6  # gid + kind + child count
        if self.loop_counts is not None:
            total += self.loop_counts.approx_bytes()
        if self.visits is not None:
            total += self.visits.approx_bytes()
        if self.records is not None:
            total += 2 + sum(r.approx_bytes() for r in self.records)
        return total

    def live_bytes(self) -> int:
        """Estimated *live* in-RAM footprint of this vertex: the payload
        as boxed CPython objects plus the transient compression state the
        serialized estimate ignores — the key -> record interning dict
        and the parameter index in front of it.  This is the budget
        mode's eviction trigger."""
        total = _VERTEX_BASE
        if self.loop_counts is not None:
            total += _SEQ_BASE + _SEQ_LIVE_FACTOR * self.loop_counts.approx_bytes()
        if self.visits is not None:
            total += _SEQ_BASE + _SEQ_LIVE_FACTOR * self.visits.approx_bytes()
        if self.records is not None:
            total += _LIST_BASE + _PTR * len(self.records)
            for r in self.records:
                total += r.live_bytes()
        if self.record_index:
            # Interned key -> record map: one slot per distinct key (the
            # key tuples themselves are shared with the records).
            total += _LIST_BASE + _DICT_ENTRY * len(self.record_index)
        if self.params_index is not None:
            # Every leaf owns the dict, filled or not; ``last_params``
            # is one of its tuples, not another.
            total += _LIST_BASE + _PARAMS_ENTRY * len(self.params_index)
        return total


class CTTShape:
    """What the CST fixes about every rank's CTT, extracted once per
    program: per vertex the identity fields, and per vertex *with
    children* the child order, the loop/call dispatch tables and the
    branch-group layout — as vertex indices and child positions, so
    :meth:`fill` can bind them to any rank's vertex objects."""

    __slots__ = ("nodes", "parents")

    def __init__(self, cst: CSTNode) -> None:
        order = list(cst.preorder())
        index = {id(node): i for i, node in enumerate(order)}
        #: per vertex, pre-order: (gid, kind, ast_id, name, op,
        #: branch_path, op_nonblocking)
        self.nodes: list[tuple] = []
        for node in order:
            op = None
            if node.kind == CALL and node.name in MPI_INTRINSICS:
                op = MPI_INTRINSICS[node.name][1]
            self.nodes.append((
                node.gid, node.kind, node.ast_id, node.name, op,
                node.branch_path, op in NONBLOCKING_OPS,
            ))
        #: per vertex with children: (own index, child indices, loop
        #: table, call table, branch groups).  A table is ``(identity,
        #: child positions)`` items, positions ascending; a group is
        #: ``(ast_id, first position, last position, ((path, position),
        #: ...))``.
        self.parents: list[tuple] = []
        for i, node in enumerate(order):
            if not node.children:
                continue
            kids = tuple(index[id(c)] for c in node.children)
            loops: dict[int, list[int]] = {}
            calls: dict[str, list[int]] = {}
            for pos, (child, j) in enumerate(zip(node.children, kids)):
                op = self.nodes[j][4]
                if child.kind == LOOP:
                    loops.setdefault(child.ast_id, []).append(pos)
                elif child.kind == CALL and op is not None:
                    calls.setdefault(op, []).append(pos)
            self.parents.append((
                i, kids,
                tuple((k, tuple(v)) for k, v in loops.items()),
                tuple((k, tuple(v)) for k, v in calls.items()),
                self._group_layout(node.children),
            ))

    @staticmethod
    def _group_layout(children: list[CSTNode]) -> tuple:
        """Runs of consecutive BRANCH children of one ``if`` — a run
        ends at a non-branch sibling, another ``ast_id`` or a repeated
        path (the next inlined copy of the same ``if``)."""
        groups: list[list] = []
        current: list | None = None
        for pos, child in enumerate(children):
            if child.kind != BRANCH:
                current = None
                continue
            if (
                current is not None
                and current[0] == child.ast_id
                and child.branch_path not in current[3]
            ):
                current[3][child.branch_path] = pos
                current[2] = pos
            else:
                current = [child.ast_id, pos, pos, {child.branch_path: pos}]
                groups.append(current)
        return tuple(
            (ast_id, first, last, tuple(paths.items()))
            for ast_id, first, last, paths in groups
        )

    def fill(self) -> list["CTTVertex"]:
        """The vertices of one rank's tree, in pre-order: a vertex per
        shape node in one flat pass, then the tables of the vertices
        that have children.  No object built here is shared with another
        call's vertices."""
        new = CTTVertex.__new__
        vertices: list[CTTVertex] = []
        append = vertices.append
        for gid, kind, ast_id, name, op, branch_path, nonblocking in self.nodes:
            v = new(CTTVertex)
            v.gid = gid
            v.kind = kind
            v.ast_id = ast_id
            v.name = name
            v.op = op
            v.branch_path = branch_path
            v.op_nonblocking = nonblocking
            if kind == CALL:
                v.records = []
                v.record_index = {}
                v.params_index = {}
                v.loop_counts = v.visits = None
            else:
                v.records = v.record_index = v.params_index = None
                v.loop_counts = IntSequence() if kind == LOOP else None
                v.visits = IntSequence() if kind == BRANCH else None
            v.children = v.branch_groups = _EMPTY
            v.loop_child_by_ast_id = _EMPTY_TABLE
            v.call_children_by_op = _EMPTY_TABLE
            v.group_by_ast_id = _EMPTY_TABLE
            v.search_pos = v.leaf_visits = 0
            v.last_params = v.last_record = None
            append(v)
        for i, kids, loops, calls, group_layout in self.parents:
            v = vertices[i]
            v.children = children = [vertices[j] for j in kids]
            v.loop_child_by_ast_id = _bind(loops, children) if loops else {}
            v.call_children_by_op = _bind(calls, children) if calls else {}
            v.branch_groups = groups = []
            v.group_by_ast_id = by_ast_id = {}
            for ast_id, first, last, paths in group_layout:
                group = BranchGroup(
                    ast_id, first, last,
                    {path: children[pos] for path, pos in paths},
                )
                groups.append(group)
                by_ast_id.setdefault(ast_id, []).append(group)
        return vertices


class CTT:
    """One rank's compressed trace tree."""

    def __init__(self, cst: "CSTNode | CTTShape", rank: int) -> None:
        """``cst`` is the program's CST root, or the :class:`CTTShape`
        already extracted from it — what a caller that builds many ranks
        of one program passes, so the extraction happens once."""
        shape = cst if isinstance(cst, CTTShape) else CTTShape(cst)
        self.rank = rank
        # Topology is fixed from here on (only payloads mutate), so the
        # pre-order list the fill produced is the cached vertices().
        self._vertices = shape.fill()
        self.root = self._vertices[0]
        self._by_gid: dict[int, CTTVertex] | None = None

    def vertex(self, gid: int) -> CTTVertex:
        if self._by_gid is None:
            self._by_gid = {v.gid: v for v in self._vertices}
        return self._by_gid[gid]

    def vertices(self) -> list[CTTVertex]:
        """Pre-order vertex list (the inter-process merge walks it once
        per rank)."""
        return self._vertices

    def preorder(self):
        return self.root.preorder()

    def vertex_count(self) -> int:
        return len(self.vertices())

    def record_count(self) -> int:
        return sum(
            len(v.records) for v in self.vertices() if v.records is not None
        )

    def serialized_bytes(self) -> int:
        """Serialized-size estimate of the whole tree (container bytes)."""
        return sum(v.serialized_bytes() for v in self.vertices())

    def live_bytes(self) -> int:
        """Estimated live in-RAM footprint of the whole tree, transient
        compression state included (the budget mode's trigger)."""
        return sum(v.live_bytes() for v in self.vertices())
