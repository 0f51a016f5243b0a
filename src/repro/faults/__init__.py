"""Deterministic fault injection for the resilience layer's tests.

Production petascale runs lose ranks and file tails; this package makes
each of those failures *reproducible* so the resilience layer (rank
quarantine, crash-safe trace I/O — docs/INTERNALS.md §7) is testable in
CI instead of only in postmortems.  Nothing in the product path calls
it: ``repro check --fault-matrix`` (:mod:`repro.verify.faultmatrix`),
the server matrix and the tests apply the damage themselves.

Every random choice derives from a seeded :class:`FaultPlan`:

* :func:`corrupt_stream` mangles one captured rank stream (unknown ops,
  bogus opcodes, unbalanced markers);
* :func:`truncate` / :func:`bitflip` damage serialized trace bytes the
  way a crash mid-write or bit rot would;
* :func:`corrupt_merged` damages a *merged trace's payload* in ways the
  invariant checker (:mod:`repro.verify.invariants`) must detect.

Same seed → byte-identical faults, every run.
"""

from .data import bitflip, truncate
from .payload import PAYLOAD_KINDS, corrupt_merged
from .plan import CORRUPT_KINDS, FaultPlan
from .streams import BOGUS_OP, BOGUS_OPCODE, corrupt_stream

__all__ = [
    "BOGUS_OP",
    "BOGUS_OPCODE",
    "CORRUPT_KINDS",
    "FaultPlan",
    "PAYLOAD_KINDS",
    "bitflip",
    "corrupt_merged",
    "corrupt_stream",
    "truncate",
]
