"""Trace integrity & self-verification (docs/INTERNALS.md §8).

Three layers, cheapest first:

* :mod:`repro.verify.invariants` — O(n) structural validators for CSTs,
  per-rank CTTs, and merged CTTs.  No decompression: every check walks
  the compressed form directly and reports
  :class:`~repro.verify.invariants.Violation`\\ s with gid/rank/sequence
  context.
* :mod:`repro.verify.differential` — cross-checks the pipeline's
  equivalence claims (fastpath vs reference compressor, inline vs
  captured-stream compression, budgeted vs unbudgeted, replay before
  vs after merge) by diffing replayed event sequences at the first
  diverging event.
* :mod:`repro.verify.wildcards` — audits compressed wildcard receives
  for nondeterminism (resolved sources that differ across merged groups,
  iteration-dependent match orders) without decompressing.

The CLI front end is ``repro check`` (plus ``--selfcheck`` on ``trace``
and ``verify``); :mod:`repro.verify.faultmatrix` drives the seeded
corruption matrix CI runs to prove the checkers actually detect damage.
"""

from .differential import DifferentialReport, Divergence, differential_check
from .invariants import (
    Violation,
    check_cst,
    check_ctt,
    check_merged,
    publish_verify_metrics,
)
from .wildcards import WildcardFinding, audit_wildcards

__all__ = [
    "DifferentialReport",
    "Divergence",
    "Violation",
    "WildcardFinding",
    "audit_wildcards",
    "check_cst",
    "check_ctt",
    "check_merged",
    "differential_check",
    "publish_verify_metrics",
]
