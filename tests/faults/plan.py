"""Seeded fault plans — the deterministic source of every injection.

A :class:`FaultPlan` is a seed.  Every random choice an injection makes
derives from it through :meth:`FaultPlan.rng`, salted by what is being
damaged, so a plan replayed with the same seed injects byte-identical
faults — every failure mode the resilience layer handles is reproducible
in CI.  What to damage is the caller's choice: the batch matrix
(:mod:`tests.faults.matrix`) and the server matrix
(:mod:`tests.faults.smoke`) pick their own victims.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace


#: Stream-corruption kinds (see :mod:`tests.faults.streams`).
CORRUPT_KINDS = ("opcode", "unknown-op", "unbalanced")


@dataclass(frozen=True)
class FaultPlan:
    """The seed every injection of one run derives from."""

    seed: int = 0

    def rng(self, *salt) -> random.Random:
        """A :class:`random.Random` derived from ``seed`` plus ``salt``
        — distinct streams per (rank, stage, purpose) that never depend
        on injection order."""
        tag = zlib.crc32(repr(salt).encode("utf-8"))
        return random.Random((self.seed << 32) ^ tag)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)
