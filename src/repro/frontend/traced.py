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
:meth:`branch_scope`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.frontend.structure import BuiltStructure, StructureError


class TracedComm:
    """Per-rank handle combining communication and structure markers."""

    def __init__(self, comm, structure: BuiltStructure) -> None:
        self._comm = comm
        self._structure = structure
        tracer = comm.runtime.tracer
        self._emit = tracer.wants_markers
        # Resolved once, not per marker.
        self._rank = comm.rank
        self._on_loop_push = tracer.on_loop_push
        self._on_loop_iter = tracer.on_loop_iter
        self._on_loop_pop = tracer.on_loop_pop
        self._on_branch_enter = tracer.on_branch_enter
        self._on_branch_exit = tracer.on_branch_exit

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

    def _ast_id(self, label: str) -> int:
        try:
            return self._structure.label_ids[label]
        except KeyError:
            raise StructureError(
                f"label {label!r} was not declared in the structure spec"
            ) from None

    def loop(self, label: str, iterable: Iterable) -> Iterator:
        """Bracket an iteration over ``iterable`` with loop markers."""
        ast_id = self._ast_id(label)
        if self._emit:
            self._on_loop_push(self._rank, ast_id)
        try:
            for item in iterable:
                if self._emit:
                    self._on_loop_iter(self._rank, ast_id)
                yield item
        finally:
            if self._emit:
                self._on_loop_pop(self._rank, ast_id)

    def branch(self, label: str, condition) -> bool:
        """Record a branch outcome; pair with :meth:`end_branch`."""
        ast_id = self._ast_id(label)
        taken = bool(condition)
        if self._emit:
            self._on_branch_enter(self._rank, ast_id, 0 if taken else 1)
        return taken

    def end_branch(self, label: str) -> None:
        if self._emit:
            self._on_branch_exit(self._rank, self._ast_id(label))

    @contextmanager
    def branch_scope(self, label: str, condition):
        """``with tc.branch_scope("edge", cond) as taken:`` convenience."""
        taken = self.branch(label, condition)
        try:
            yield taken
        finally:
            self.end_branch(label)
