"""TracedComm: the annotated communication handle for Python rank
functions.

Wraps a :class:`~repro.mpisim.comm.RankComm` and forwards MPI calls,
while emitting CYPRESS structure markers for the loops and branches the
user declared (:mod:`repro.frontend.structure`).  The rank function is a
generator (like any simulated rank), using ``yield from`` for MPI calls::

    def rank_main(tc: TracedComm):
        yield from tc.mpi("mpi_init")
        rank, size = tc.rank, tc.size
        for _ in tc.loop("steps", range(50)):
            if tc.branch("has_right", rank < size - 1):
                yield from tc.mpi("mpi_send", rank + 1, 8192, 0)
            tc.end_branch("has_right")
        yield from tc.mpi("mpi_finalize")

``loop`` brackets the iterable with push/iter/pop markers; ``branch``
emits the enter marker for the taken path and returns the condition (the
matching ``end_branch`` emits the exit).  For ``with``-style scoping use
:meth:`branch_scope`.  Each marker is an opcode tuple built once per label.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.frontend.structure import BuiltStructure, StructureError
from repro.mpisim import pmpi


def _marker_items(ast_id: int) -> tuple:
    """A label's marker items: loop push, iter, pop; branch entry taken,
    not taken; branch exit."""
    return (
        (pmpi.OP_LOOP_PUSH, ast_id), (pmpi.OP_LOOP_ITER, ast_id),
        (pmpi.OP_LOOP_POP, ast_id), (pmpi.OP_BRANCH_ENTER, ast_id, 0),
        (pmpi.OP_BRANCH_ENTER, ast_id, 1), (pmpi.OP_BRANCH_EXIT, ast_id),
    )


class TracedComm:
    """Per-rank handle combining communication and structure markers."""

    def __init__(self, comm, structure: BuiltStructure) -> None:
        self._comm = comm
        self._marking = comm.runtime.tracer.wants_markers
        self._emit = comm.emit
        self._items = {
            label: _marker_items(ast_id)
            for label, ast_id in structure.label_ids.items()
        }

    # -- identity -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._comm.rank

    @property
    def size(self) -> int:
        return self._comm.runtime.nprocs

    @property
    def clock(self) -> float:
        return self._comm.clock

    def compute(self, us: float) -> None:
        """Advance this rank's virtual clock (models local computation)."""
        if us < 0:
            raise ValueError("compute() needs a non-negative time")
        self._comm.clock += us

    # -- communication ------------------------------------------------------

    def mpi(self, name: str, *args):
        """Issue one MPI intrinsic (generator; use ``yield from``)."""
        result = yield from self._comm.call(name, list(args))
        return result

    # -- structure markers ---------------------------------------------------

    def _marks(self, label: str) -> tuple:
        try:
            return self._items[label]
        except KeyError:
            raise StructureError(
                f"label {label!r} was not declared in the structure spec"
            ) from None

    def loop(self, label: str, iterable: Iterable) -> Iterator:
        """Bracket an iteration over ``iterable`` with loop markers."""
        push, step, pop = self._marks(label)[:3]
        marking, emit = self._marking, self._emit
        if marking:
            emit(push)
        try:
            for item in iterable:
                if marking:
                    emit(step)
                yield item
        finally:
            if marking:
                emit(pop)

    def branch(self, label: str, condition) -> bool:
        """Record a branch outcome; pair with :meth:`end_branch`."""
        marks = self._marks(label)
        taken = bool(condition)
        if self._marking:
            self._emit(marks[3] if taken else marks[4])
        return taken

    def end_branch(self, label: str) -> None:
        if self._marking:
            self._emit(self._marks(label)[5])

    @contextmanager
    def branch_scope(self, label: str, condition):
        """``with tc.branch_scope("edge", cond) as taken:`` convenience."""
        taken = self.branch(label, condition)
        try:
            yield taken
        finally:
            self.end_branch(label)
