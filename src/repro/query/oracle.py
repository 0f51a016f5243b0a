"""Replay oracles: each query's slow, trivially-correct twin.

Every function in :mod:`repro.query.engine` has a ``*_via_replay``
counterpart here that computes the *identical* answer by decompressing
the merged trace into per-rank event lists and analyzing those — the
way a tool with no query engine would.  The twins exist to be compared:
the differential tests assert engine == oracle on every workload and
merge schedule, which pins the decompression-free implementations down
by construction.

Agreement convention
--------------------

Integer fields (messages, bytes, calls, counts, relations, GIDs) must
match **exactly**.  Float fields (times) are compared with a relative/
absolute tolerance of 1e-9: the engine computes ``mean × count`` per
record while the oracle sums ``mean`` once per replayed event, and IEEE
addition is not associative, so the two can differ in the last ulp.
:func:`agreement_errors` encodes the convention once; the tests and the
end-to-end benchmark both go through it.

Each oracle accepts the replayed events (``traces=`` / ``events=``) so
a test suite can decompress once and feed every oracle — replay is the
expensive part.
"""

from __future__ import annotations

import math
from itertools import chain

from repro.core.decompress import ReplayEvent, decompress_all, decompress_merged_rank

from .engine import (
    AGREEMENT_TOL as _TOL,
    GROUPINGS,
    SEND_OPS,
    CriticalLeaf,
    OpProfile,
    OrderingResult,
    RankProfile,
    Traffic,
    rank_leaves,
)
from .paths import TreeIndex


# ---------------------------------------------------------------------------
# Oracles.


def traffic_via_replay(
    merged,
    group_by: str = "op",
    nprocs: int | None = None,
    traces: dict[int, list[ReplayEvent]] | None = None,
) -> dict:
    """Replay every rank and aggregate events one by one."""
    if group_by not in GROUPINGS:
        raise ValueError(f"unknown traffic grouping {group_by!r}")
    if traces is None:
        traces = decompress_all(merged)
    if group_by == "rank_pair" and nprocs is None:
        nprocs = max(traces, default=-1) + 1
    out: dict = {}

    def bump(key, messages: int, nbytes: int) -> None:
        cell = out.get(key)
        out[key] = Traffic(
            messages=(cell.messages if cell else 0) + messages,
            nbytes=(cell.nbytes if cell else 0) + nbytes,
        )

    for rank, events in traces.items():
        for ev in events:
            if group_by == "rank_pair":
                if (ev.op in SEND_OPS and rank < nprocs
                        and 0 <= ev.peer < nprocs):
                    bump((rank, ev.peer), 1, ev.nbytes)
            elif group_by == "size":
                if ev.op in SEND_OPS:
                    bump(ev.nbytes, 1, ev.nbytes)
            elif group_by == "vertex":
                bump(ev.gid, 1, ev.nbytes + ev.nbytes2)
            else:
                bump(ev.op, 1, ev.nbytes + ev.nbytes2)
    return out


def ordering_via_replay(
    merged,
    gid_a: int,
    gid_b: int,
    rank: int,
    events: list[ReplayEvent] | None = None,
) -> OrderingResult:
    """Replay one rank and compare the event positions directly."""
    if events is None:
        events = decompress_merged_rank(merged, rank)
    pos_a = [i for i, ev in enumerate(events) if ev.gid == gid_a]
    pos_b = [i for i, ev in enumerate(events) if ev.gid == gid_b]
    if not pos_a and not pos_b:
        relation = "neither"
    elif not pos_b:
        relation = "only-a"
    elif not pos_a:
        relation = "only-b"
    elif pos_a[-1] < pos_b[0]:
        relation = "before"
    elif pos_b[-1] < pos_a[0]:
        relation = "after"
    else:
        relation = "interleaved"
    return OrderingResult(
        gid_a=gid_a, gid_b=gid_b, rank=rank, relation=relation,
        count_a=len(pos_a), count_b=len(pos_b),
    )


def rank_profile_via_replay(
    merged,
    rank: int | None,
    events: list[ReplayEvent] | dict[int, list[ReplayEvent]] | None = None,
) -> RankProfile:
    """Replay one rank — every rank for ``rank=None``, ``events`` then
    being the traces by rank — and fold its events into a per-op
    profile."""
    if rank is None:
        traces = events if events is not None else decompress_all(merged)
        events = chain.from_iterable(traces.values())
    elif events is None:
        events = decompress_merged_rank(merged, rank)
    profile = RankProfile(rank=rank)
    for ev in events:
        entry = profile.ops.get(ev.op)
        if entry is None:
            entry = profile.ops[ev.op] = OpProfile(op=ev.op)
        entry.calls += 1
        entry.nbytes += ev.nbytes + ev.nbytes2
        entry.time_us += ev.mean_duration
        entry.gap_us += ev.mean_gap
        profile.events += 1
        profile.comm_us += ev.mean_duration
        profile.gap_us += ev.mean_gap
    return profile


def critical_leaves_via_replay(
    merged,
    k: int = 10,
    traces: dict[int, list[ReplayEvent]] | None = None,
) -> list[CriticalLeaf]:
    """Replay every rank and rank leaves by summed event durations.

    Paths and depths are taken from the (static) tree structure — they
    have no dynamic content to differ on."""
    if traces is None:
        traces = decompress_all(merged)
    index = TreeIndex(merged)
    totals: dict[int, float] = {}
    calls: dict[int, int] = {}
    for events in traces.values():
        for ev in events:
            totals[ev.gid] = totals.get(ev.gid, 0.0) + ev.mean_duration
            calls[ev.gid] = calls.get(ev.gid, 0) + 1
    leaves = [
        CriticalLeaf(
            gid=gid,
            op=index.vertex(gid).op or index.vertex(gid).name or "?",
            depth=index.depth[gid],
            calls=calls[gid],
            total_us=totals[gid],
            path=index.path(gid),
        )
        for gid in totals
    ]
    return rank_leaves(leaves, k)


# ---------------------------------------------------------------------------
# Agreement checking.


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_TOL, abs_tol=_TOL)


def agreement_errors(engine_result, oracle_result, label: str = "query") -> list[str]:
    """Structural comparison under the agreement convention (ints exact,
    floats within 1e-9).  Returns human-readable mismatch descriptions —
    empty means the results agree."""
    errors: list[str] = []

    def walk(a, b, where: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b), key=repr):
                if key not in a:
                    errors.append(f"{where}[{key!r}]: missing from engine")
                elif key not in b:
                    errors.append(f"{where}[{key!r}]: missing from oracle")
                else:
                    walk(a[key], b[key], f"{where}[{key!r}]")
        elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                errors.append(f"{where}: length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{where}[{i}]")
        elif hasattr(a, "__dataclass_fields__") and hasattr(b, "__dataclass_fields__"):
            if type(a) is not type(b):
                errors.append(f"{where}: {type(a).__name__} != {type(b).__name__}")
                return
            for name in a.__dataclass_fields__:
                walk(getattr(a, name), getattr(b, name), f"{where}.{name}")
        elif isinstance(a, bool) or isinstance(b, bool):
            if a != b:
                errors.append(f"{where}: {a!r} != {b!r}")
        elif isinstance(a, float) or isinstance(b, float):
            if not _close(float(a), float(b)):
                errors.append(f"{where}: {a!r} !~ {b!r} (tol {_TOL})")
        else:
            if a != b:
                errors.append(f"{where}: {a!r} != {b!r}")

    walk(engine_result, oracle_result, label)
    return errors
