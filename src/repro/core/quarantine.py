"""Rank quarantine: degraded-but-analyzable handling of bad streams.

When one rank's captured stream does not match the static CST (a
corrupted capture, an un-instrumented code path, a tracer bug on one
node), aborting whole-run compression throws away every *healthy*
rank's data.  :func:`repro.core.intra.compress_streams` and the ingest
daemon instead **quarantine** the offending rank: its partial CTT is
discarded (its report keeps the error and its event count), healthy
ranks compress normally, and the merge covers the survivors.
The :class:`QuarantineReport` names every victim with the exact
mismatch error — nothing fails silently, nothing healthy is lost.
Calling ``ingest_stream`` directly keeps the fail-fast raise
(docs/INTERNALS.md §7).
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass
class QuarantinedRank:
    """One rank excluded from compression."""

    rank: int
    #: 'intra' (a CST/stream mismatch) or 'server' (the daemon's idle
    #: reaper: the rank went silent).
    stage: str
    error: str  # the StreamMismatchError message, or the idle reason
    events: int  # communication events in the captured stream

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "stage": self.stage,
            "error": self.error,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantinedRank":
        """Inverse of :meth:`to_dict`."""
        return cls(
            rank=int(data["rank"]),
            stage=str(data["stage"]),
            error=str(data["error"]),
            events=int(data["events"]),
        )


class QuarantineReport:
    """Every rank a run quarantined, in rank order."""

    def __init__(self, items: list[QuarantinedRank] | None = None) -> None:
        self.items: list[QuarantinedRank] = list(items or [])

    def __bool__(self) -> bool:
        return bool(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def add(self, item: QuarantinedRank) -> None:
        self.items.append(item)
        self.items.sort(key=lambda q: q.rank)

    def ranks(self) -> list[int]:
        return [q.rank for q in self.items]

    def rank_set(self) -> frozenset[int]:
        return frozenset(q.rank for q in self.items)

    def get(self, rank: int) -> QuarantinedRank | None:
        for item in self.items:
            if item.rank == rank:
                return item
        return None

    def to_dict(self) -> dict:
        return {
            "quarantined_ranks": len(self.items),
            "items": [q.to_dict() for q in self.items],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantineReport":
        return cls([QuarantinedRank.from_dict(d) for d in data["items"]])

    @classmethod
    def from_json(cls, text: str) -> "QuarantineReport":
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        if not self.items:
            return "no ranks quarantined"
        ranks = ", ".join(str(q.rank) for q in self.items)
        return f"{len(self.items)} rank(s) quarantined: {ranks}"
