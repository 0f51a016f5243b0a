"""Pieces every workload shares: capturing a job's inputs and ground
truth, the container correctness checks, and the open-and-query and
replay paths timed on a container file."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import query
from repro.core import serialize
from repro.core.api import run_cypress
from repro.core.decompress import decompress_all
from repro.core.intra import CypressConfig
from repro.driver import run_compiled
from repro.mpisim.pmpi import RecordingSink, StreamCaptureSink
from repro.static.cst import CALL
from repro.static.instrument import compile_minimpi
from repro.verify.invariants import check_merged
from repro.workloads import get as get_workload

from .harness import Ops, Timer
from .workloads import Job


_ALL = 1 << 30  # "every call site" for critical_leaves' k


@dataclass
class Inputs:
    """One job's compiled program, captured streams and ground truth."""

    job: Job
    source: str
    compiled: object
    defines: dict
    streams: dict[int, list]
    events: int  # MPI events (markers excluded)
    items: int  # stream items (events + markers)
    #: rank -> ground-truth call sequence; filled by ``record_truth``
    truth: dict[int, list[tuple]] = field(default_factory=dict)


def capture_inputs(job: Job, timer: Timer) -> Inputs:
    """Compile, then run once under the capture sink — the set-up every
    later phase reuses.  The two timed steps are filed under
    ``setup.compile``/``setup.capture``."""
    workload = get_workload(job.workload)
    workload.check_procs(job.nprocs)
    compiled = timer.call("setup.compile", compile_minimpi, workload.source)
    defines = workload.defines(job.nprocs, job.scale)
    capture = StreamCaptureSink()
    result = timer.call(
        "setup.capture", run_compiled, compiled, job.nprocs,
        defines=defines, tracer=capture,
    )
    return Inputs(
        job=job, source=workload.source, compiled=compiled, defines=defines,
        streams=capture.streams, events=result.total_events,
        items=sum(len(s) for s in capture.streams.values()),
    )


def record_truth(inp: Inputs) -> None:
    """Run the program once more under a plain recorder: the call
    sequence every replay is checked against.  Part of the correctness
    gate, not of the set-up the timed phases need."""
    truth = RecordingSink()
    run_compiled(inp.compiled, inp.job.nprocs, defines=inp.defines,
                 tracer=truth)
    inp.truth = {
        rank: [e.replay_tuple() for e in truth.events.get(rank, [])]
        for rank in range(inp.job.nprocs)
    }


def inline_container(inp: Inputs, config: CypressConfig | None = None) -> bytes:
    """The reference bytes: the program traced with the inline
    compressor, tree-merged, serialized."""
    run = run_cypress(
        inp.compiled, inp.job.nprocs, defines=inp.defines, config=config
    )
    blob = serialize.dumps(run.merge(schedule="tree"))
    run.compressor.close_spill()
    return blob


@dataclass
class QueryArgs:
    """The rank and call-site pair ``rank_profile``/``ordering`` ask about."""

    rank: int
    gid_a: int
    gid_b: int


def pick_query_args(rng: random.Random, merged, nprocs: int) -> QueryArgs:
    leaves = [
        v.gid for v in merged.root.preorder() if v.kind == CALL and v.groups
    ]
    gid_a, gid_b = (rng.choice(leaves), rng.choice(leaves))
    return QueryArgs(rng.randrange(nprocs), gid_a, gid_b)


def open_query_path(timer: Timer, paths: list[str],
                    args: list[QueryArgs]) -> None:
    """Open the container file(s) and answer one query of each kind on
    each; every layer call covers all the files."""
    trees = timer.call(
        "serialize.load", lambda: [serialize.load(p) for p in paths]
    )
    asked = list(zip(trees, args))
    timer.call("query.traffic", lambda: [query.traffic(m) for m in trees])
    timer.call("query.ordering", lambda: [
        query.ordering(m, a.gid_a, a.gid_b, a.rank) for m, a in asked
    ])
    timer.call("query.rank_profile", lambda: [
        query.rank_profile(m, a.rank) for m, a in asked
    ])
    timer.call("query.critical_leaves", lambda: [
        query.critical_leaves(m) for m in trees
    ])


def replay_path(timer: Timer, paths: list[str]) -> None:
    trees = timer.call(
        "serialize.load", lambda: [serialize.load(p) for p in paths]
    )
    timer.call("decompress.all", lambda: [decompress_all(m) for m in trees])


def check_container(
    ops: Ops, path: str, inp: Inputs, args: QueryArgs, label: str
) -> None:
    """One op per rank replayed against ground truth, one per query
    against its replay oracle, one for the merged-tree invariants."""
    merged = serialize.load(path)
    traces = decompress_all(merged)
    for rank in range(inp.job.nprocs):
        got = [e.call_tuple() for e in traces.get(rank, [])]
        ops.check(got == inp.truth[rank], f"{label}: replay of rank {rank}")
    pairs = {
        "traffic": (
            query.traffic(merged),
            query.traffic_via_replay(merged, traces=traces),
        ),
        "ordering": (
            query.ordering(merged, args.gid_a, args.gid_b, args.rank),
            query.ordering_via_replay(
                merged, args.gid_a, args.gid_b, args.rank,
                events=traces[args.rank],
            ),
        ),
        "rank_profile": (
            query.rank_profile(merged, args.rank),
            query.rank_profile_via_replay(
                merged, args.rank, events=traces[args.rank]
            ),
        ),
        # Compared per call site, not as a ranking: the engine and the
        # oracle sum times in different orders, and call sites whose
        # totals tie to within the 1e-9 tolerance can swap places (seen
        # on sp; README, "Findings").
        "critical_leaves": tuple(
            {leaf.gid: leaf for leaf in leaves} for leaves in (
                query.critical_leaves(merged, k=_ALL),
                query.critical_leaves_via_replay(merged, k=_ALL, traces=traces),
            )
        ),
    }
    for name, (engine, oracle) in pairs.items():
        ops.check(
            not query.agreement_errors(engine, oracle, name),
            f"{label}: {name} vs replay oracle",
        )
    ops.check(
        not check_merged(merged, nranks=inp.job.nprocs),
        f"{label}: check_merged",
    )
