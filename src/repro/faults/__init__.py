"""Deterministic fault injection for the compression pipeline.

Production petascale runs lose ranks and file tails; this package makes
each of those failures *reproducible* so the resilience layer (rank
quarantine, crash-safe trace I/O — docs/INTERNALS.md §7) is testable in
CI instead of only in postmortems.

Everything is driven by a seeded :class:`FaultPlan`:

* :func:`corrupt_streams` mangles captured per-rank event streams
  (unknown ops, bogus opcodes, unbalanced markers);
* :func:`truncate` / :func:`bitflip` / :func:`corrupt_bytes` damage
  serialized trace bytes the way a crash mid-write or bit rot would;
* :func:`corrupt_merged` damages a *merged trace's payload* in ways the
  invariant checker (:mod:`repro.verify.invariants`) must detect — the
  negative tests of ``repro check --fault-matrix``.

Same seed → byte-identical faults, every run.
"""

from .data import bitflip, corrupt_bytes, truncate
from .payload import PAYLOAD_KINDS, corrupt_merged
from .plan import CORRUPT_KINDS, NO_FAULTS, FaultPlan
from .streams import BOGUS_OP, BOGUS_OPCODE, corrupt_stream, corrupt_streams

__all__ = [
    "BOGUS_OP",
    "BOGUS_OPCODE",
    "CORRUPT_KINDS",
    "FaultPlan",
    "NO_FAULTS",
    "PAYLOAD_KINDS",
    "bitflip",
    "corrupt_bytes",
    "corrupt_merged",
    "corrupt_stream",
    "corrupt_streams",
    "truncate",
]
