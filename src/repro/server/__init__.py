"""Trace-compression-as-a-service: the online ingest layer.

The batch pipeline (``repro trace``) assumes every rank's capture is
already on the local machine.  This package turns the same CTT
machinery into a long-running service (docs/INTERNALS.md §13):

* :mod:`repro.server.protocol` — the CRC-framed wire protocol clients
  speak (HELLO / BATCH / EOS control flow, THROTTLE backpressure,
  exactly-once sequence numbering);
* :mod:`repro.server.session` — per-``(job, rank)`` session state with
  crash-safe checkpoint/batch-log files and prefix-salvage recovery;
* :mod:`repro.server.daemon` — the asyncio TCP daemon behind
  ``repro serve``: bounded buffering with high/low watermarks, idle
  quarantine, periodic checkpoints, graceful drain, crash recovery;
* :mod:`repro.server.client` — the retry/reconnect/resume client
  library behind ``repro submit``;
* :mod:`repro.server.faultsmoke` — the ``repro faultsmoke`` matrix:
  seeded daemon kills, client disconnects, torn frames and stalled
  ranks, all asserting byte-identity against the batch pipeline.
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
