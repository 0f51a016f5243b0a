"""Seeded fault plans — the deterministic driver of every injection.

A :class:`FaultPlan` is an immutable description of *which* faults to
inject *where*: corrupt these rank streams, truncate or bit-flip the
saved trace bytes.  All randomness is derived from ``seed`` through
:meth:`FaultPlan.rng`, so a plan replayed with the same seed injects
byte-identical faults — every failure mode the resilience layer handles
is reproducible in CI.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace


#: Stream-corruption kinds (see :mod:`repro.faults.streams`).
CORRUPT_KINDS = ("opcode", "unknown-op", "unbalanced")


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic set of faults to inject into a pipeline run."""

    seed: int = 0
    #: Ranks whose captured streams get corrupted (``corrupt_kind``).
    corrupt_ranks: tuple[int, ...] = ()
    #: 'opcode' | 'unknown-op' | 'unbalanced' | 'mixed' (seeded pick).
    corrupt_kind: str = "mixed"
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

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)


#: A plan that injects nothing — handy default for plumbing.
NO_FAULTS = FaultPlan()
