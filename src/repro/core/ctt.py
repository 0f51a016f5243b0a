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

Hot-path dispatch tables
------------------------

Cursor moves are the per-marker/per-event cost the paper budgets at O(1),
so child lookup must not scan the generic child list with a predicate.
At construction every vertex precomputes *monomorphic* dispatch tables —
``loop_child_by_ast_id``, ``call_children_by_op`` and ``group_by_ast_id``
— mapping the marker/event identity straight to the (few) candidate
children, as ``(child_index, child)`` pairs in ascending child order.
The ordered wrap-around semantics ("first candidate at or after
``search_pos``, else the first candidate overall") is thereby a scan over
a list that is almost always length 1, instead of a closure applied to
every sibling.

Leaf vertices additionally carry the key-interning cache slots the
intra-process compressor uses (``last_params``/``last_key``/
``last_record``, see :mod:`repro.core.intra`), plus a single-slot
monomorphic dispatch cache (``mono_op``/``mono_pair``) that shortcuts
the dict lookup when a vertex dispatches the same single-candidate op
repeatedly — the steady state inside any loop body.
"""

from __future__ import annotations

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
# (interned dicts, key caches) that the serialized-size estimate
# ignores, because under budget pressure that state dominates.
_PTR = 8
_VERTEX_BASE = 360       # CTTVertex slots + dispatch-table headers
_SEQ_BASE = 120          # IntSequence object + terms list header
_SEQ_LIVE_FACTOR = 3     # boxed terms vs packed varint estimate
_DICT_ENTRY = 104        # amortized dict slot (hash + key + value + growth)
_LIST_BASE = 64
_TUPLE_BASE = 56


@dataclass
class BranchGroup:
    """Sibling branch-path vertices of one ``if`` under one parent."""

    ast_id: int
    first_index: int  # child index of the first path vertex
    last_index: int  # child index of the last path vertex
    paths: dict[int, "CTTVertex"] = field(default_factory=dict)
    visit_counter: int = 0  # runtime state


class CTTVertex:
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
        "record_index",
        "branch_groups",
        "search_pos",
        "leaf_visits",
        "_iters_active",
        # monomorphic dispatch tables (fixed after construction)
        "loop_child_by_ast_id",
        "call_children_by_op",
        "group_by_ast_id",
        "op_nonblocking",
        # single-slot monomorphic dispatch cache: the last op dispatched
        # from this vertex, valid only when it has exactly one candidate
        # child (wrap-around over one candidate always yields it)
        "mono_op",
        "mono_pair",
        # key-interning cache (leaf vertices; transient compression state)
        "last_params",
        "last_key",
        "last_record",
    )

    def __init__(self, cst_node: CSTNode) -> None:
        self.gid = cst_node.gid
        self.kind = cst_node.kind
        self.ast_id = cst_node.ast_id
        self.name = cst_node.name
        self.branch_path = cst_node.branch_path
        self.op: str | None = None
        if cst_node.kind == CALL and cst_node.name in MPI_INTRINSICS:
            self.op = MPI_INTRINSICS[cst_node.name][1]
        # Precomputed per-leaf: does this op create a request?  (Spares
        # the per-event frozenset membership test on the hot path.)
        self.op_nonblocking = self.op in NONBLOCKING_OPS
        self.children: list[CTTVertex] = [CTTVertex(c) for c in cst_node.children]
        # payload
        self.loop_counts: IntSequence | None = IntSequence() if cst_node.kind == LOOP else None
        self.visits: IntSequence | None = IntSequence() if cst_node.kind == BRANCH else None
        self.records: list[CompressedRecord] | None = [] if cst_node.kind == CALL else None
        # key -> record, for unbounded (position-independent) merging.
        self.record_index: dict | None = {} if cst_node.kind == CALL else None
        # transient compression state
        self.branch_groups: list[BranchGroup] = self._build_groups()
        self.search_pos = 0
        self.leaf_visits = 0
        self._iters_active = 0
        # dispatch tables: marker/event identity -> ascending (idx, child)
        loops: dict[int, list[tuple[int, CTTVertex]]] = {}
        calls: dict[str, list[tuple[int, CTTVertex]]] = {}
        for idx, child in enumerate(self.children):
            if child.kind == LOOP:
                loops.setdefault(child.ast_id, []).append((idx, child))
            elif child.kind == CALL and child.op is not None:
                calls.setdefault(child.op, []).append((idx, child))
        self.loop_child_by_ast_id = loops
        self.call_children_by_op = calls
        groups: dict[int, list[BranchGroup]] = {}
        for g in self.branch_groups:
            groups.setdefault(g.ast_id, []).append(g)
        self.group_by_ast_id = groups
        self.mono_op: str | None = None
        self.mono_pair: tuple[int, CTTVertex] | None = None
        # key-interning cache (meaningful on leaves only): the last
        # event's key-relevant parameters as one tuple, compared with a
        # single C-level tuple equality on the hot path.
        self.last_params: tuple | None = None
        self.last_key = None
        self.last_record: CompressedRecord | None = None

    def _build_groups(self) -> list[BranchGroup]:
        groups: list[BranchGroup] = []
        current: BranchGroup | None = None
        for idx, child in enumerate(self.children):
            if child.kind != BRANCH:
                current = None
                continue
            if (
                current is not None
                and current.ast_id == child.ast_id
                and child.branch_path not in current.paths
                and idx == current.last_index + 1
            ):
                current.paths[child.branch_path] = child
                current.last_index = idx
            else:
                current = BranchGroup(
                    ast_id=child.ast_id,
                    first_index=idx,
                    last_index=idx,
                    paths={child.branch_path: child},
                )
                groups.append(current)
        return groups

    # ------------------------------------------------------------------

    def preorder(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find_child(self, predicate, start: int) -> tuple["CTTVertex", int] | None:
        """Ordered wrap-around search among children (generic reference
        path — the dispatch tables below are the fast equivalents)."""
        n = len(self.children)
        for k in range(n):
            idx = (start + k) % n
            child = self.children[idx]
            if predicate(child):
                return child, idx
        return None

    def find_loop_child(self, ast_id: int, start: int) -> tuple[int, "CTTVertex"] | None:
        """Monomorphic ordered wrap-around lookup of a loop child:
        first candidate at child index >= ``start``, else wrap to the
        first candidate.  Equivalent to ``find_child`` with a
        kind/ast_id predicate, without the closure or the sibling scan."""
        lst = self.loop_child_by_ast_id.get(ast_id)
        if lst is None:
            return None
        for pair in lst:
            if pair[0] >= start:
                return pair
        return lst[0]

    def find_call_child(self, op: str, start: int) -> tuple[int, "CTTVertex"] | None:
        """Monomorphic ordered wrap-around lookup of an MPI-call leaf."""
        lst = self.call_children_by_op.get(op)
        if lst is None:
            return None
        for pair in lst:
            if pair[0] >= start:
                return pair
        return lst[0]

    def find_group(self, ast_id: int, start: int) -> BranchGroup | None:
        """Ordered wrap-around search among branch groups (by the child
        index of the group's first vertex).  Scans the precomputed
        per-``ast_id`` group list in place — no candidate list is
        allocated per marker."""
        lst = self.group_by_ast_id.get(ast_id)
        if lst is None:
            return None
        for group in lst:
            if group.first_index >= start:
                return group
        return lst[0]  # wrap around

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

    #: Backwards-compatible alias — the historical name for the
    #: *serialized* estimate (analysis/baselines size accounting).
    approx_bytes = serialized_bytes

    def live_bytes(self) -> int:
        """Estimated *live* in-RAM footprint of this vertex: the payload
        as boxed CPython objects plus the transient compression state the
        serialized estimate ignores — the key/record interning dicts and
        the key cache.  This is the budget mode's eviction trigger."""
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
        if self.last_params is not None:
            total += _TUPLE_BASE + _PTR * len(self.last_params)
        return total


class CTT:
    """One rank's compressed trace tree."""

    def __init__(self, cst: CSTNode, rank: int) -> None:
        self.rank = rank
        self.root = CTTVertex(cst)
        self._by_gid: dict[int, CTTVertex] | None = None
        self._vertices: list[CTTVertex] | None = None

    def vertex(self, gid: int) -> CTTVertex:
        if self._by_gid is None:
            self._by_gid = {v.gid: v for v in self.root.preorder()}
        return self._by_gid[gid]

    def vertices(self) -> list[CTTVertex]:
        """Pre-order vertex list, cached (topology is fixed after
        construction; only payloads mutate).  The inter-process merge
        walks this once per rank — caching avoids P re-traversals."""
        if self._vertices is None:
            self._vertices = list(self.root.preorder())
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

    #: Historical name for the serialized estimate.
    approx_bytes = serialized_bytes

    def live_bytes(self) -> int:
        """Estimated live in-RAM footprint of the whole tree, transient
        compression state included (the budget mode's trigger)."""
        return sum(v.live_bytes() for v in self.vertices())
