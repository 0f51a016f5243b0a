"""Engine == replay oracle on every registered workload, under every
merge schedule.

This is the acceptance gate for the query layer: for each workload in
the registry, trace it once, merge the per-rank CTTs under the fold and
tree schedules, and assert that every query's decompression-free
answer equals the answer computed from full replay.  Replay per merged
tree happens once (``decompress_all``) and feeds every oracle."""

import itertools
import sys

import pytest

sys.path.insert(0, "tests")

from repro import query
from repro.core import run_cypress
from repro.core.decompress import decompress_all
from repro.core.inter import merge_all
from repro.static.cst import CALL
from repro.workloads import WORKLOADS

SCHEDULES = ("fold", "tree")

#: Most leaves × ranks to sweep for the ordering query per tree — it is
#: O(pairs) and the point is coverage of shapes, not volume.
MAX_ORDERING_LEAVES = 8
MAX_ORDERING_RANKS = 3


def _nprocs(w) -> int:
    return min((p for p in w.valid_procs if p >= 4),
               default=min(w.valid_procs))


_CTTS: dict[str, tuple[list, int]] = {}


def _ctts(name: str):
    """Per-session cache: each workload is traced once, merged per schedule."""
    if name not in _CTTS:
        w = WORKLOADS[name]
        nprocs = _nprocs(w)
        run = run_cypress(w.source, nprocs, defines=w.defines(nprocs, 0.2))
        _CTTS[name] = ([run.compressor.ctt(r) for r in range(nprocs)], nprocs)
    return _CTTS[name]


def _merged(name: str, schedule: str):
    ctts, nprocs = _ctts(name)
    return merge_all(ctts, schedule=schedule), nprocs


@pytest.mark.parametrize(
    "name,schedule",
    list(itertools.product(sorted(WORKLOADS), SCHEDULES)),
)
def test_every_query_agrees_with_replay(name, schedule):
    merged, nprocs = _merged(name, schedule)
    traces = decompress_all(merged)

    for group_by in ("vertex", "op", "rank_pair"):
        query.assert_agrees(
            query.traffic(merged, group_by=group_by),
            query.traffic_via_replay(merged, group_by=group_by,
                                     traces=traces),
            f"{name}/{schedule}/traffic.{group_by}",
        )

    for rank in range(nprocs):
        query.assert_agrees(
            query.rank_profile(merged, rank),
            query.rank_profile_via_replay(merged, rank,
                                          events=traces.get(rank, [])),
            f"{name}/{schedule}/rank_profile.{rank}",
        )

    # Compared as rankings: engine and oracle share one sort key
    # (``rank_leaves``) under which totals within the tolerance tie.
    query.assert_agrees(
        query.critical_leaves(merged, k=10**9),
        query.critical_leaves_via_replay(merged, k=10**9, traces=traces),
        f"{name}/{schedule}/critical_leaves",
    )

    index = query.TreeIndex(merged)
    leaves = [v.gid for v in merged.root.preorder() if v.kind == CALL]
    sample = leaves[:MAX_ORDERING_LEAVES]
    for rank in list(traces)[:MAX_ORDERING_RANKS]:
        events = traces[rank]
        for gid_a, gid_b in itertools.product(sample, repeat=2):
            query.assert_agrees(
                query.ordering(merged, gid_a, gid_b, rank, index=index),
                query.ordering_via_replay(merged, gid_a, gid_b, rank,
                                          events=events),
                f"{name}/{schedule}/ordering.{gid_a}-{gid_b}.r{rank}",
            )


def test_schedules_give_identical_answers():
    """The merge schedules are association-free, so queries must
    not be able to tell them apart either."""
    results = []
    for schedule in SCHEDULES:
        merged, _ = _merged("cg", schedule)
        results.append((
            query.traffic(merged, group_by="op"),
            query.traffic(merged, group_by="rank_pair"),
            sorted(query.critical_leaves(merged, k=10**9),
                   key=lambda c: c.gid),
        ))
    for other in results[1:]:
        for got, want in zip(other, results[0]):
            query.assert_agrees(got, want, "schedule-independence")


@pytest.mark.parametrize("scale", [0.3, 3])
def test_sp_near_ties_rank_identically(scale):
    """``sp`` P=16 has call sites whose totals are equal in exact
    arithmetic; the engine (mean × count) and the oracle (one mean per
    event) land ulps apart on them, and a plain ``(-total, gid)`` sort
    ranked them differently at these two scales."""
    w = WORKLOADS["sp"]
    run = run_cypress(w.source, 16, defines=w.defines(16, scale))
    merged = run.merge()
    engine = query.critical_leaves(merged, k=10**9)
    oracle = query.critical_leaves_via_replay(merged, k=10**9)
    assert [c.gid for c in engine] == [c.gid for c in oracle]
    query.assert_agrees(engine, oracle, f"sp/{scale}/critical_leaves")
    # The defect was real: the exact totals do order these differently.
    def naive(leaves):
        return [c.gid
                for c in sorted(leaves, key=lambda c: (-c.total_us, c.gid))]

    assert naive(engine) != naive(oracle)
