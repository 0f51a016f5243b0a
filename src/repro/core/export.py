"""Export decompressed traces to interchange formats.

CYPRESS trace files are compact and structural; other tools (OTF-style
analysers, spreadsheets) want flat per-rank event streams.  This module
renders the sequence-preserving replay into:

* ``to_text``  — an OTF-ish readable log, one event per line;
* ``to_csv``   — machine-readable CSV with reconstructed timestamps
  (cumulative mean gaps + durations — the expectation timeline, since the
  compressed trace stores time *statistics*, §IV-A).
"""

from __future__ import annotations

import csv
import io

from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.events import NO_PEER

from .decompress import ReplayEvent, decompress_all, decompress_merged_rank
from .inter import MergedCTT

CSV_FIELDS = (
    "rank", "seq", "op", "t_start_us", "duration_us", "peer", "peer2",
    "tag", "nbytes", "comm", "root", "wildcard", "result_comm", "gid",
)


def format_peer(peer: int, wildcard: bool = False) -> str | None:
    """Render a decoded peer for flat output.

    ``None`` for the no-peer sentinel (omit the field), ``*`` for an
    unresolved ``ANY_SOURCE`` on a wildcard record, and a loud ``?N``
    for anything else negative.  The wildcard flag disambiguates ``-1``:
    sentinels are stored absolute, so a ``-1`` on a *non*-wildcard
    record can only be a relative decode that overflowed the rank range
    (e.g. rank 0 + delta −1) — corruption, not ``ANY_SOURCE``.
    """
    if peer == NO_PEER:
        return None
    if peer == ANY_SOURCE and wildcard:
        return "*"
    if peer < 0:
        return f"?{peer}"
    return str(peer)


def _timeline(events: list[ReplayEvent]):
    """Yield (start, event) with expectation timestamps."""
    clock = 0.0
    for ev in events:
        clock += ev.mean_gap
        yield clock, ev
        clock += ev.mean_duration


def _traces(merged: MergedCTT, ranks: list[int] | None) -> dict:
    """The given ranks replayed (default: all), each peer checked against
    ``[0, merged.rank_span())``
    (:class:`~repro.core.errors.DecompressionError` if not); a rank no
    group holds is left out, and a rank not asked for is not replayed."""
    nranks = merged.rank_span()
    if ranks is None:
        return decompress_all(merged, nranks)
    return {
        r: decompress_merged_rank(merged, r, nranks) for r in ranks
        if any(v.group_of(r) is not None for v in merged.vertices())
    }


def to_text(merged: MergedCTT, ranks: list[int] | None = None) -> str:
    """Readable flat trace of the given ranks (default: all)."""
    traces = _traces(merged, ranks)
    out = io.StringIO()
    for rank in sorted(traces):
        out.write(f"# rank {rank}: {len(traces[rank])} events\n")
        for t, ev in _timeline(traces[rank]):
            parts = [f"{t:14.3f}", f"r{rank}", ev.op]
            peer = format_peer(ev.peer, ev.wildcard)
            if peer is not None:
                parts.append(f"peer={peer}")
            if ev.nbytes:
                parts.append(f"bytes={ev.nbytes}")
            if ev.tag:
                parts.append(f"tag={ev.tag}")
            if ev.root >= 0:
                parts.append(f"root={ev.root}")
            if ev.comm:
                parts.append(f"comm={ev.comm}")
            if ev.result_comm >= 0:
                parts.append(f"newcomm={ev.result_comm}")
            if ev.wildcard:
                parts.append("anysrc")
            out.write(" ".join(parts) + "\n")
    return out.getvalue()


def to_csv(merged: MergedCTT, ranks: list[int] | None = None) -> str:
    """CSV flat trace with expectation timestamps."""
    traces = _traces(merged, ranks)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_FIELDS)
    for rank in sorted(traces):
        for seq, (t, ev) in enumerate(_timeline(traces[rank])):
            writer.writerow(
                [
                    rank, seq, ev.op, f"{t:.3f}", f"{ev.mean_duration:.3f}",
                    ev.peer, ev.peer2, ev.tag, ev.nbytes, ev.comm, ev.root,
                    int(ev.wildcard), ev.result_comm, ev.gid,
                ]
            )
    return out.getvalue()
