"""Engine == replay oracle on every registered workload, on the tree as
merged and on the tree a user opens.

This is the acceptance gate for the query layer: for each workload in
the registry, trace it once, merge the per-rank CTTs, and assert that
every query's decompression-free answer equals the answer computed from
full replay — on the fresh tree (records in hand, transposed per query)
and on ``loads(dumps(fresh))`` (decoded leaf blocks, no record built).
The engine answers first: replay materialises a loaded tree's records,
and from then on the queries would read those."""

import itertools
import sys

import pytest

sys.path.insert(0, "tests")
from spec_compress import make_key  # noqa: E402

from repro import query
from repro.core import run_cypress, serialize
from repro.core.decompress import decompress_all
from repro.core.ctt import CTT
from repro.core.inter import merge_all
from repro.core.records import CompressedRecord
from repro.mpisim.events import NO_PEER
from repro.static.cst import CALL, LOOP, ROOT, CSTNode, assign_gids
from repro.workloads import WORKLOADS

#: How the tree under test came to be: ``fresh`` from ``merge_all``, or
#: ``loaded`` back from its own container.  The test ids still read
#: ``tree`` and ``fold`` — the merge-schedule axis this one replaced
#: (one code path since PR 23); the test floor pins those 26 names.
FORMS = {"fresh": "tree", "loaded": "fold"}

#: Most leaves × ranks to sweep for the ordering query per tree — it is
#: O(pairs) and the point is coverage of shapes, not volume.
MAX_ORDERING_LEAVES = 8
MAX_ORDERING_RANKS = 3


def _nprocs(w) -> int:
    return min((p for p in w.valid_procs if p >= 4),
               default=min(w.valid_procs))


_CTTS: dict[str, tuple[list, int]] = {}


def _ctts(name: str):
    """Per-session cache: each workload is traced once, merged per form."""
    if name not in _CTTS:
        w = WORKLOADS[name]
        nprocs = _nprocs(w)
        run = run_cypress(w.source, nprocs, defines=w.defines(nprocs, 0.2))
        _CTTS[name] = ([run.compressor.ctt(r) for r in range(nprocs)], nprocs)
    return _CTTS[name]


def _merged(name: str, form: str):
    ctts, nprocs = _ctts(name)
    merged = merge_all(ctts)
    if form == "loaded":
        merged = serialize.loads(serialize.dumps(merged))
    return merged, nprocs


def _leaf_groups(merged):
    return [g for v in merged.vertices() if v.kind == CALL
            for g in v.groups]


def _assert_every_query_agrees(merged, nprocs: int, label: str) -> None:
    """Every query against its ``*_via_replay`` twin; the engine is
    asked everything before the one replay that feeds the oracles."""
    index = query.TreeIndex(merged)
    leaves = [v.gid for v in merged.root.preorder() if v.kind == CALL]
    ranks = sorted({r for g in _leaf_groups(merged) for r in g.ranks})
    asked = [
        (gid_a, gid_b, rank)
        for rank in ranks[:MAX_ORDERING_RANKS]
        for gid_a, gid_b in itertools.product(
            leaves[:MAX_ORDERING_LEAVES], repeat=2)
    ]
    engine = {
        **{("traffic", by): query.traffic(merged, group_by=by)
           for by in ("vertex", "op", "size", "rank_pair")},
        # ``None``: the whole job, every group weighted by its members.
        **{("rank_profile", rank): query.rank_profile(merged, rank)
           for rank in [*range(nprocs), None]},
        # Compared as rankings: engine and oracle share one sort key
        # (``rank_leaves``) under which totals within the tolerance tie.
        ("critical_leaves",): query.critical_leaves(merged, k=10**9),
        **{("ordering", *ask): query.ordering(merged, *ask, index=index)
           for ask in asked},
    }
    if merged.loaded:  # answered from the decoded blocks alone
        assert all(g._records is None for g in _leaf_groups(merged))

    traces = decompress_all(merged)
    for what, got in engine.items():
        kind, *args = what
        if kind == "traffic":
            want = query.traffic_via_replay(merged, group_by=args[0],
                                            traces=traces)
        elif kind == "rank_profile":
            events = traces if args[0] is None else traces.get(args[0], [])
            want = query.rank_profile_via_replay(merged, args[0],
                                                 events=events)
        elif kind == "critical_leaves":
            want = query.critical_leaves_via_replay(merged, k=10**9,
                                                    traces=traces)
        else:
            want = query.ordering_via_replay(merged, *args,
                                             events=traces.get(args[2], []))
        assert not query.agreement_errors(
            got, want, f"{label}/{'.'.join(map(str, what))}")


@pytest.mark.parametrize(
    "name,form",
    [pytest.param(name, form, id=f"{name}-{FORMS[form]}")
     for name in sorted(WORKLOADS) for form in sorted(FORMS)],
)
def test_every_query_agrees_with_replay(name, form):
    merged, nprocs = _merged(name, form)
    _assert_every_query_agrees(merged, nprocs, f"{name}/{form}")


def test_fresh_and_loaded_give_identical_answers():
    """A container round trip is lossless, so the queries must not be
    able to tell the tree that was written from the tree that was read
    — exactly, float for float: both reduce the same numbers in the
    same order."""
    results = []
    for form in ("fresh", "loaded"):
        merged, nprocs = _merged("cg", form)
        results.append((
            query.traffic(merged, group_by="op"),
            query.traffic(merged, group_by="vertex"),
            [query.rank_profile(merged, rank)
             for rank in [*range(nprocs), None]],
            query.critical_leaves(merged, k=10**9),
            query.traffic(merged, group_by="rank_pair"),
            query.traffic(merged, group_by="size"),
        ))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# A shape no workload produces: one call site whose records name two
# ops, a record that never occurs, and — at that same vertex — one
# group small enough to be written as rows beside one written as
# columns.


def _record(op: str, nbytes: int, tag: int, occurrences, duration_us: float):
    rec = CompressedRecord(key=make_key(
        op, ("abs", 0), ("abs", NO_PEER), tag, 0, nbytes, 0, 0, -1, False, (),
    ))
    for at in occurrences:
        rec.add_occurrence(at, duration_us, 1.5)
    return rec


def _two_op_tree():
    """root ─ loop ─ call, six iterations a rank.  Ranks 0–1 alternate a
    send and a receive (two records and one that never occurs: rows);
    ranks 2–3 send five different tags, then receive (six records and
    one that never occurs: columns)."""
    cst = CSTNode(kind=ROOT, children=[
        CSTNode(kind=LOOP, ast_id=1, children=[
            CSTNode(kind=CALL, ast_id=2, name="mpi_send"),
        ]),
        # The string table names the ops of call sites: a second one,
        # so that the first can hold receives as well.
        CSTNode(kind=CALL, ast_id=3, name="mpi_recv"),
    ])
    assign_gids(cst)
    ctts = []
    for rank in range(4):
        ctt = CTT(cst, rank)
        ctt.vertex(1).loop_counts.append(6)
        if rank < 2:
            records = [
                _record("MPI_Send", 100, 7, (0, 2, 4), 10.0),
                _record("MPI_Recv", 50, 7, (1, 3, 5), 20.0),
            ]
        else:
            records = [
                _record("MPI_Send", 64, tag, (tag,), 3.0 + tag)
                for tag in range(5)
            ] + [_record("MPI_Recv", 8, 9, (5,), 40.0)]
        records.append(_record("MPI_Send", 999, 1, (), 0.0))
        ctt.vertex(2).records.extend(records)
        ctt.vertex(3).records.append(_record("MPI_Recv", 4, 0, (0,), 2.0))
        ctts.append(ctt)
    return merge_all(ctts)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_two_ops_a_silent_record_rows_beside_columns(form):
    merged = _two_op_tree()
    rows, columns = merged.vertices()[2].sorted_groups()
    assert len(rows.records) <= serialize._ROW_GROUP < len(columns.records)
    if form == "loaded":
        merged = serialize.loads(serialize.dumps(merged))
    by_op = query.traffic(merged, group_by="op")
    assert by_op == {
        "MPI_Send": query.Traffic(messages=2 * 3 + 2 * 5,
                                  nbytes=2 * 3 * 100 + 2 * 5 * 64),
        "MPI_Recv": query.Traffic(messages=2 * 3 + 2 * 1 + 4,
                                  nbytes=2 * 3 * 50 + 2 * 1 * 8 + 4 * 4),
    }
    assert query.traffic(merged, group_by="vertex") == {
        2: query.Traffic(messages=24, nbytes=900 + 640 + 16),
        3: query.Traffic(messages=4, nbytes=16),
    }
    profile = query.rank_profile(merged, 3)
    assert (profile.events, profile.ops["MPI_Recv"].time_us) == (7, 42.0)
    assert profile.ops["MPI_Send"].time_us == pytest.approx(3 + 4 + 5 + 6 + 7)
    _assert_every_query_agrees(merged, 4, f"two-op/{form}")


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
    assert not query.agreement_errors(
        engine, oracle, f"sp/{scale}/critical_leaves")
    # The defect was real: the exact totals do order these differently.
    def naive(leaves):
        return [c.gid
                for c in sorted(leaves, key=lambda c: (-c.total_us, c.gid))]

    assert naive(engine) != naive(oracle)
