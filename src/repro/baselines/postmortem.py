"""Post-mortem compression: compress already-collected flat traces.

The paper contrasts CYPRESS's on-the-fly compression with post-mortem
approaches (Knüpfer's cCCG [29]), which require the full flat trace
first.  This module provides that mode for the dynamic baselines: parse
raw per-rank text traces (the :class:`~repro.baselines.rawtrace.RawTraceSink`
format) back into events and run them through ScalaTrace offline.

CYPRESS itself cannot run post-mortem from a flat trace alone — it needs
the CST and the structure markers, which is exactly the design trade the
paper makes (§I: compile-time help in exchange for needing the build
step).
"""

from __future__ import annotations

import re

from repro.mpisim.events import NO_PEER, CommEvent

from .scalatrace import ScalaTraceCompressor

_LINE = re.compile(
    r"^(?P<op>MPI_\w+) r(?P<rank>\d+) t=(?P<t>[\d.]+) d=(?P<d>[\d.]+)"
    r"(?P<rest>.*)$"
)
_FIELD = re.compile(r"(\w+)=([\-\d,]+)")


class TraceParseError(Exception):
    """A raw trace line did not match the expected format."""


_REQ = re.compile(r"^REQ (?P<rid>\d+) src=(?P<src>-?\d+) bytes=(?P<nb>\d+)")


def parse_req_line(line: str) -> tuple[int, int, int] | None:
    """Parse a request-completion bookkeeping line -> (rid, src, nbytes)."""
    m = _REQ.match(line.strip())
    if m is None:
        return None
    return int(m.group("rid")), int(m.group("src")), int(m.group("nb"))


def parse_line(line: str, seq: int) -> CommEvent | None:
    """Parse one raw-trace line; returns None for REQ bookkeeping lines."""
    line = line.strip()
    if not line or line.startswith("REQ"):
        return None
    m = _LINE.match(line)
    if m is None:
        raise TraceParseError(f"unparseable trace line: {line!r}")
    fields = dict(_FIELD.findall(m.group("rest")))
    reqs = ()
    if "reqs" in fields:
        reqs = tuple(int(x) for x in fields["reqs"].split(","))
    return CommEvent(
        op=m.group("op"),
        rank=int(m.group("rank")),
        seq=seq,
        peer=int(fields.get("peer", NO_PEER)),
        peer2=int(fields.get("peer2", NO_PEER)),
        tag=int(fields.get("tag", 0)),
        tag2=int(fields.get("tag2", 0)),
        nbytes=int(fields.get("bytes", 0)),
        nbytes2=int(fields.get("bytes2", 0)),
        root=int(fields.get("root", -1)),
        req=int(fields.get("req", -1)),
        reqs=reqs,
        wildcard="anysrc" in m.group("rest"),
        time_start=float(m.group("t")),
        duration=float(m.group("d")),
    )


def parse_rank_trace(text: str) -> tuple[list[CommEvent], dict[int, tuple[int, int]]]:
    """Parse one rank's flat trace into (events, request resolutions)."""
    events: list[CommEvent] = []
    resolutions: dict[int, tuple[int, int]] = {}
    for line in text.splitlines():
        req = parse_req_line(line)
        if req is not None:
            rid, src, nbytes = req
            resolutions[rid] = (src, nbytes)
            continue
        ev = parse_line(line, len(events))
        if ev is not None:
            events.append(ev)
    return events, resolutions


def compress_postmortem(
    rank_traces: dict[int, str], max_window: int = 32
) -> ScalaTraceCompressor:
    """Run ScalaTrace offline over parsed flat traces.

    Nonblocking wildcard receives are logged provisionally (``peer=-1``)
    with a later ``REQ`` bookkeeping line carrying the resolved source —
    the resolutions are replayed right after the event stream, exactly as
    the on-line compressor would have seen them at completion time.
    """
    comp = ScalaTraceCompressor(max_window=max_window)
    for rank, text in sorted(rank_traces.items()):
        events, resolutions = parse_rank_trace(text)
        for ev in events:
            comp.on_event(rank, ev)
            if ev.op == "MPI_Irecv" and ev.wildcard and ev.req in resolutions:
                src, nbytes = resolutions[ev.req]
                comp.on_request_complete(rank, ev.req, src, nbytes, 0.0)
    comp.flush()
    return comp
