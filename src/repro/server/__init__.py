"""Trace-compression-as-a-service: the online ingest layer.

The batch pipeline (``repro trace``) assumes every rank's capture is
already on the local machine.  This package turns the same CTT
machinery into a long-running service (docs/INTERNALS.md §13):

* :mod:`repro.server.protocol` — the CRC-framed wire protocol clients
  speak (HELLO / BATCH / EOS control flow, exactly-once sequence
  numbering);
* :mod:`repro.server.session` — per-``(job, rank)`` session state in
  one append-only log (identity, batches appended on accept, EOS and
  idle-quarantine records), fsynced at checkpoints, with
  prefix-salvage recovery;
* :mod:`repro.server.daemon` — the asyncio TCP daemon behind
  ``repro serve``: no batch held in memory, idle quarantine, periodic
  checkpoints, graceful drain, crash recovery;
* :mod:`repro.server.client` — the retry/reconnect/resume client
  library behind ``repro submit``;
* :mod:`repro.server.faultsmoke` — ``DaemonProc``, one ``repro serve``
  subprocess on a known port.

The server fault matrix that drives it (seeded daemon kills, client
disconnects, torn frames, stalled ranks) is a test harness,
``python -m tests.faults.smoke``.
"""

from .client import TraceClient, split_batches, submit_workload
from .daemon import CypressTraceServer, ServerConfig
from .protocol import ProtocolError

__all__ = [
    "CypressTraceServer",
    "ProtocolError",
    "ServerConfig",
    "TraceClient",
    "split_batches",
    "submit_workload",
]
