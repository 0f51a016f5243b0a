"""Deterministic fault injection: the harness that proves the
resilience layer works.

Production petascale runs lose ranks and file tails; these modules make
each of those failures *reproducible*, so rank quarantine, crash-safe
trace I/O and the ingest server's recovery (docs/INTERNALS.md §7, §13)
are tested in CI instead of only in postmortems.  The product never
imports them.

* :mod:`.plan` — :class:`~tests.faults.plan.FaultPlan`, the seed every
  random choice derives from (same seed, byte-identical faults);
* :mod:`.streams` — corrupt one captured rank stream (unknown ops,
  bogus opcodes, unbalanced markers);
* :mod:`.data` — truncate or bit-flip serialized trace bytes;
* :mod:`.payload` — damage a merged trace's payload in ways the
  invariant checker must detect;
* :mod:`.matrix` — the batch fault matrix,
  ``python -m tests.faults.matrix <workload>``;
* :mod:`.client` — a trace client whose socket drops, tears a frame,
  trickles or stalls on cue;
* :mod:`.smoke` — the server fault matrix and soak against real daemon
  subprocesses, ``python -m tests.faults.smoke``.
"""
