"""Deterministic corruption of captured marker/event streams.

Operates on the opcode-tuple streams :class:`~repro.mpisim.pmpi.
StreamCaptureSink` records — the representation
:func:`repro.core.intra.compress_streams` consumes — so an
injected corruption exercises exactly the CST/stream-mismatch paths the
quarantine machinery must survive:

* ``opcode``      — insert a tuple with an unknown stream opcode;
* ``unknown-op``  — rewrite one event's MPI op to a name with no CST
  leaf (an unknown-GID dispatch failure);
* ``unbalanced``  — insert a loop-exit marker with no open loop.

Every kind is guaranteed to raise
:class:`~repro.core.errors.StreamMismatchError` when the stream is
ingested (``IntraProcessCompressor.ingest_stream``).
"""

from __future__ import annotations

from dataclasses import replace as _replace

from repro.mpisim.pmpi import OP_EVENT, OP_LOOP_POP

from .plan import CORRUPT_KINDS

#: Stream opcode no capture ever writes (pmpi opcodes are 0..9).
BOGUS_OPCODE = 99

#: MPI op name no CST can contain a leaf for.
BOGUS_OP = "MPI_Bogus"


def corrupt_stream(stream: list, kind: str, rng) -> list:
    """Return a corrupted copy of one rank's captured stream."""
    if kind == "mixed":
        kind = rng.choice(CORRUPT_KINDS)
    out = list(stream)
    if kind == "opcode":
        out.insert(rng.randrange(len(out) + 1), (BOGUS_OPCODE,))
    elif kind == "unbalanced":
        out.insert(rng.randrange(len(out) + 1), (OP_LOOP_POP, -1))
    elif kind == "unknown-op":
        events = [i for i, item in enumerate(out) if item[0] == OP_EVENT]
        if not events:
            # No event to rewrite — degrade to an opcode corruption so
            # the plan still injects *something* into the victim.
            out.insert(rng.randrange(len(out) + 1), (BOGUS_OPCODE,))
        else:
            i = rng.choice(events)
            out[i] = (OP_EVENT, _replace(out[i][1], op=BOGUS_OP))
    else:
        raise ValueError(f"unknown stream-corruption kind {kind!r}")
    return out
