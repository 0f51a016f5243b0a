"""Seeded fault plans — the deterministic driver of every injection.

A :class:`FaultPlan` is an immutable description of *which* faults to
inject *where*: corrupt these rank streams, kill/hang/fail these pool
tasks, truncate or bit-flip the saved trace bytes.  All randomness is
derived from ``seed`` through :meth:`FaultPlan.rng`, so a plan replayed
with the same seed injects byte-identical faults — every failure mode
the resilience layer handles is reproducible in CI.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace


#: Worker-fault actions (see :mod:`repro.faults.workers`).
ACTION_RAISE = "raise"
ACTION_KILL = "kill"
ACTION_HANG = "hang"
ACTIONS = (ACTION_RAISE, ACTION_KILL, ACTION_HANG)

#: Pool stages faults can target.
STAGE_INTRA = "intra"  # compress_streams shard workers
STAGE_INTER = "inter"  # merge_all reduction workers

#: Stream-corruption kinds (see :mod:`repro.faults.streams`).
CORRUPT_KINDS = ("opcode", "unknown-op", "unbalanced")


@dataclass(frozen=True)
class WorkerFault:
    """Kill/hang/fail one pool task on its first ``attempts`` tries.

    ``task`` indexes the task (shard/chunk) within the ``stage`` pool
    run; the fault fires while ``attempt < attempts``, so retries beyond
    that succeed — which is exactly what lets tests drive the retry
    machinery deterministically.
    """

    stage: str  # STAGE_INTRA or STAGE_INTER
    task: int
    action: str  # ACTION_RAISE / ACTION_KILL / ACTION_HANG
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown worker-fault action {self.action!r}")
        if self.stage not in (STAGE_INTRA, STAGE_INTER):
            raise ValueError(f"unknown worker-fault stage {self.stage!r}")


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic set of faults to inject into a pipeline run."""

    seed: int = 0
    #: Ranks whose captured streams get corrupted (``corrupt_kind``).
    corrupt_ranks: tuple[int, ...] = ()
    #: 'opcode' | 'unknown-op' | 'unbalanced' | 'mixed' (seeded pick).
    corrupt_kind: str = "mixed"
    #: Pool tasks to kill/hang/fail (first attempt(s) only by default).
    worker_faults: tuple[WorkerFault, ...] = ()
    #: How long an injected 'hang' sleeps — the per-task timeout must be
    #: below this for the hang to be recoverable.
    hang_seconds: float = 60.0
    #: Truncate saved trace bytes at this fraction of the file (0..1).
    truncate_fraction: float | None = None
    #: Number of single-bit flips to apply to saved trace bytes.
    bitflips: int = 0

    # ------------------------------------------------------------------

    def rng(self, *salt) -> random.Random:
        """A :class:`random.Random` derived from ``seed`` plus ``salt``
        — distinct streams per (rank, stage, purpose) that never depend
        on injection order."""
        tag = zlib.crc32(repr(salt).encode("utf-8"))
        return random.Random((self.seed << 32) ^ tag)

    def worker_fault(self, stage: str, task: int, attempt: int) -> str | None:
        """The action to inject for ``task`` of ``stage`` on this
        ``attempt`` (0-based), or ``None``."""
        for fault in self.worker_faults:
            if (
                fault.stage == stage
                and fault.task == task
                and attempt < fault.attempts
            ):
                return fault.action
        return None

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)


#: A plan that injects nothing — handy default for plumbing.
NO_FAULTS = FaultPlan()
