"""Raw per-rank trace writer — the Gzip baseline (paper's OTF-style tool).

Records every event as one text line per rank, like a conventional trace
collector.  ``total_bytes()`` is the uncompressed volume; ``gzip_bytes()``
compresses each rank's stream independently (as OTF's zlib layer does) and
sums — there is no inter-process compression, so sizes grow linearly with
the number of ranks, exactly the behaviour Fig. 15 shows for Gzip.
"""

from __future__ import annotations

import gzip

from repro.mpisim.events import CommEvent, format_event
from repro.mpisim.pmpi import TraceSink, event_emitter


class RawTraceSink(TraceSink):
    """Accumulates plain-text traces per rank."""

    def __init__(self) -> None:
        self._chunks: dict[int, list[bytes]] = {}
        self._nbytes: dict[int, int] = {}

    def stream(self, rank: int):
        return event_emitter(rank, self.on_event, self.on_request_complete)

    def on_event(self, rank: int, event: CommEvent) -> None:
        line = (format_event(event) + "\n").encode("ascii")
        self._chunks.setdefault(rank, []).append(line)
        self._nbytes[rank] = self._nbytes.get(rank, 0) + len(line)

    def on_request_complete(self, rank, rid, source, nbytes, when):
        # A raw tracer logs the completion as part of the wait record; the
        # post-hoc source is appended as its own line (what ITC/OTF do).
        line = f"REQ {rid} src={source} bytes={nbytes} t={when:.3f}\n".encode("ascii")
        self._chunks.setdefault(rank, []).append(line)
        self._nbytes[rank] = self._nbytes.get(rank, 0) + len(line)

    # ------------------------------------------------------------------

    def rank_bytes(self, rank: int) -> int:
        return self._nbytes.get(rank, 0)

    def total_bytes(self) -> int:
        return sum(self._nbytes.values())

    def rank_blob(self, rank: int) -> bytes:
        return b"".join(self._chunks.get(rank, []))

    def gzip_bytes(self) -> int:
        """Total size with per-rank gzip (the Gzip baseline of Fig. 15)."""
        return sum(
            len(gzip.compress(self.rank_blob(rank), compresslevel=6))
            for rank in self._chunks
        )

    def event_count(self) -> int:
        return sum(len(c) for c in self._chunks.values())
