"""The Compressed Trace Tree (CTT) — paper §IV.

The CTT mirrors the CST: same vertices, same edges, same GIDs.  Each
vertex additionally carries the runtime payload the dynamic module fills
in:

* loop vertices — the iteration-count sequence, one entry per activation
  (nested loops activate once per enclosing iteration, paper Fig. 10);
* branch-path vertices — the visit indices at which the path was taken,
  stride-compressed (paper Fig. 11);
* leaf vertices — the list of :class:`CompressedRecord`s.

A vertex also holds its rank's transient cursor state (the position
the ordered child match resumes from, the leaf's visit count) and, on
a parent, one visit counter per branch *group* — the sibling
path-vertices of one source-level ``if`` share one.

Shape and fill
--------------

Everything the CST fixes — identity fields, child order, which children
a marker or an op can dispatch to, how sibling branch paths group — is
extracted once per program into a :class:`CTTShape`.  A rank's
:class:`CTT` is a flat pre-order *fill* of that shape: one vertex object
per shape node, then each parent's child list and group counters.  The
static module runs once (paper §III) and every rank shares what it
fixed (§IV-B); a rank pays only for its payload and cursor (§IV-A).

Hot-path dispatch tables
------------------------

Cursor moves are the per-marker/per-event cost the paper budgets at O(1),
so child lookup must not scan the generic child list with a predicate.
Every vertex points at three *monomorphic* dispatch tables of its
shape node — ``loop_child_by_ast_id``, ``call_children_by_op`` and
``group_by_ast_id`` — mapping the marker/event identity straight to the
(few) candidates in ascending child order: child *positions* for loops
and calls, :class:`BranchGroup` layouts for branches.  The walk takes
the child with ``vertex.children[position]``.  The tables are the
shape's read-only :class:`ShapeTable` dicts, probed with ``dict.get``.
The ordered wrap-around semantics ("first candidate at or after
``search_pos``, else the first candidate overall") is thereby a scan over
a tuple that is almost always length 1, instead of a closure applied to
every sibling.

An MPI event skips even that when the program runs its calls in source
order: the compressor first tries the child *at* ``search_pos`` and
consults ``call_children_by_op`` only when that is not the event's leaf.

Leaf vertices additionally carry the record index the intra-process
compressor probes before it builds a key: ``params_index``, every
parameter tuple seen -> its record (complete, so a miss is a first
occurrence), behind the one-slot ``last_params``/``last_record`` cache
(see :mod:`repro.core.intra`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minilang.builtins import MPI_INTRINSICS
from repro.mpisim.events import NONBLOCKING_OPS
from repro.static.cst import BRANCH, CALL, LOOP, CSTNode

from .sequences import IntSequence

# ---------------------------------------------------------------------------
# CPython live-memory cost model (64-bit).  Deliberately coarse: the
# budget trigger needs to track the real footprint to within a small
# factor, not byte-perfectly — but it must *see* the state (the params
# index) that the serialized-size estimate ignores, because under
# budget pressure that state dominates.
_PTR = 8
_VERTEX_BASE = 360       # CTTVertex slots + payload containers (a flat
                         # average; the dispatch tables are the shape's)
_SEQ_BASE = 120          # IntSequence object + terms list header
_SEQ_LIVE_FACTOR = 3     # boxed terms vs packed varint estimate
_LIST_BASE = 64
# One ``params_index`` entry: the 11-field parameter tuple only the
# index keeps alive (144 B; its elements are the key's) plus its dict
# slot — tracemalloc says 158 B an entry on sp, 177-186 on cg / mg.
_PARAMS_ENTRY = 160


class ShapeTable(dict):
    """A dispatch table the CST fixes, built once per program and shared
    by every rank's vertices: a write raises, and a copy or deep copy is
    the table itself (``copy.deepcopy(ctt)`` keeps sharing it).  Reads
    are the plain ``dict`` ones, so the walk's ``.get`` stays C-level."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a shape table is shared by every rank: read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __deepcopy__(self, memo=None) -> "ShapeTable":
        return self

    __copy__ = __deepcopy__


@dataclass(frozen=True, slots=True)
class BranchGroup:
    """Sibling branch-path children of one ``if`` under one parent, as
    child positions; ``number`` indexes the parent's ``group_visits``.
    Frozen, as every rank shares it; slots, as the walk reads four
    fields per branch entry (a ``NamedTuple`` read is not specialised)."""

    number: int
    ast_id: int
    first_index: int  # child position of the first path vertex
    last_index: int  # child position of the last path vertex
    paths: ShapeTable  # branch path -> child position


# What a vertex without children holds in place of a child list and
# group counters, and every vertex in place of a table it has no entry
# for.  Shared by every such vertex of every rank, so immutable: a
# stray write raises instead of aliasing.
_EMPTY: tuple = ()
_EMPTY_TABLE = ShapeTable()


def _table(entries: dict) -> ShapeTable:
    return ShapeTable(entries) if entries else _EMPTY_TABLE


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
        # per branch group of this parent, in child order: the times one
        # of its paths was entered
        "group_visits",
        "search_pos",
        "leaf_visits",
        # the shape node's monomorphic dispatch tables (shared, read-only)
        "loop_child_by_ast_id",
        "call_children_by_op",
        "group_by_ast_id",
        # does this leaf's op create a request?  (Spares the per-event
        # frozenset membership test on the hot path.)
        "op_nonblocking",
        # the record index (leaf vertices; read by the unbounded window
        # only): the last event's key-relevant parameters as one tuple
        # with the record they committed to, and every parameter tuple
        # seen -> its record, for position-independent merging
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
        one) candidate positions, without a closure or a sibling scan."""
        positions = self.loop_child_by_ast_id.get(ast_id)
        if positions is None:
            return None
        for pos in positions:
            if pos >= start:
                break
        else:
            pos = positions[0]
        return pos, self.children[pos]

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
        as boxed CPython objects plus the compression state the
        serialized estimate ignores — the parameter index.  This is the
        budget mode's eviction trigger."""
        total = _VERTEX_BASE
        if self.loop_counts is not None:
            total += _SEQ_BASE + _SEQ_LIVE_FACTOR * self.loop_counts.approx_bytes()
        if self.visits is not None:
            total += _SEQ_BASE + _SEQ_LIVE_FACTOR * self.visits.approx_bytes()
        if self.records is not None:
            total += _LIST_BASE + _PTR * len(self.records)
            for r in self.records:
                total += r.live_bytes()
        if self.params_index is not None:
            # Every leaf owns the dict, filled or not; ``last_params``
            # is one of its tuples, not another.
            total += _LIST_BASE + _PARAMS_ENTRY * len(self.params_index)
        return total


class CTTShape:
    """What the CST fixes about every rank's CTT, extracted once per
    program: per vertex the identity fields, and per vertex *with
    children* the child order, the loop/call dispatch tables and the
    branch-group layout — as vertex indices, child positions and the
    :class:`ShapeTable` dicts every :meth:`fill` shares."""

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
        #: table, call table, group table, group count).  The loop and
        #: call tables map an identity to its child positions,
        #: ascending; the group table an ``ast_id`` to its groups.
        self.parents: list[tuple] = []
        for i, node in enumerate(order):
            if not node.children:
                continue
            loops: dict[int, tuple] = {}
            calls: dict[str, tuple] = {}
            for pos, child in enumerate(node.children):
                op = self.nodes[index[id(child)]][4]
                if child.kind == LOOP:
                    loops[child.ast_id] = loops.get(child.ast_id, ()) + (pos,)
                elif child.kind == CALL and op is not None:
                    calls[op] = calls.get(op, ()) + (pos,)
            groups = self._group_layout(node.children)
            by_ast_id: dict[int, tuple] = {}
            for group in groups:
                by_ast_id[group.ast_id] = by_ast_id.get(group.ast_id, ()) + (group,)
            self.parents.append((
                i, tuple(index[id(c)] for c in node.children),
                _table(loops), _table(calls), _table(by_ast_id), len(groups),
            ))

    @staticmethod
    def _group_layout(children: list[CSTNode]) -> list[BranchGroup]:
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
        return [
            BranchGroup(number, ast_id, first, last, ShapeTable(paths))
            for number, (ast_id, first, last, paths) in enumerate(groups)
        ]

    def fill(self) -> list["CTTVertex"]:
        """The vertices of one rank's tree, in pre-order: a vertex per
        shape node in one flat pass, then the child lists and group
        counters of the vertices that have children.  Every mutable
        object built here is this call's own; the tables are the
        shape's."""
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
                v.params_index = {}
                v.loop_counts = v.visits = None
            else:
                v.records = v.params_index = None
                v.loop_counts = IntSequence() if kind == LOOP else None
                v.visits = IntSequence() if kind == BRANCH else None
            v.children = v.group_visits = _EMPTY
            v.loop_child_by_ast_id = _EMPTY_TABLE
            v.call_children_by_op = _EMPTY_TABLE
            v.group_by_ast_id = _EMPTY_TABLE
            v.search_pos = v.leaf_visits = 0
            v.last_params = v.last_record = None
            append(v)
        for i, kids, loops, calls, groups, ngroups in self.parents:
            v = vertices[i]
            v.children = [vertices[j] for j in kids]
            v.loop_child_by_ast_id = loops
            v.call_children_by_op = calls
            v.group_by_ast_id = groups
            if ngroups:
                v.group_visits = [0] * ngroups
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

    def vertex(self, gid: int) -> CTTVertex:
        """The vertex of ``gid``: gids are pre-order indexes
        (:func:`repro.static.cst.assign_gids`)."""
        vertices = self._vertices
        if 0 <= gid < len(vertices) and vertices[gid].gid == gid:
            return vertices[gid]
        raise KeyError(gid)

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
