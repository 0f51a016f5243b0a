"""Trace integrity checks (docs/INTERNALS.md §8).

Both read the compressed form; neither decompresses:

* :mod:`repro.verify.invariants` — O(n) structural validators for CSTs,
  per-rank CTTs, and merged CTTs.  One arity walk reads the compressed
  form through replay's payload accessors and reports
  :class:`~repro.verify.invariants.Violation`\\ s with gid/rank/sequence
  context.
* :mod:`repro.verify.wildcards` — audits compressed wildcard receives
  for nondeterminism (resolved sources that differ across merged groups,
  iteration-dependent match orders).

The CLI front end is ``repro check FILE`` (and ``--selfcheck`` on
``trace``, which checks the file it has just written).  The tool's own
self-tests live under ``tests/``: the workload-driven suite with its
differential harness (``python -m tests.verify.check``) and the seeded
corruption matrix that proves the checkers detect damage
(``python -m tests.faults.matrix``).
"""

from .invariants import (
    Violation,
    check_cst,
    check_ctt,
    check_merged,
    publish_verify_metrics,
)
from .wildcards import WildcardFinding, audit_wildcards

__all__ = [
    "Violation",
    "WildcardFinding",
    "audit_wildcards",
    "check_cst",
    "check_ctt",
    "check_merged",
    "publish_verify_metrics",
]
