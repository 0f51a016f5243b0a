"""Replay by shape and class on generated programs (P = 2 and 4).

``decompress_all`` walks the loops and branches once per *shape* (the
LOOP and BRANCH groups that hold a rank) and resolves the leaves once per
*class* (the groups at every vertex).  The generator's rank-dependent
branches give a job more than one shape, so these properties cover
classes that share a walk and classes that do not:

* replay equals the naive reference walker (``tests/spec_replay.py``)
  rank by rank;
* after one leaf is damaged (a visit no record claims, or a relative
  peer past the job under ``nranks=``), ``decompress_all``,
  ``decompress_merged_rank`` and ``decompress_rank`` raise the same
  ``(rank, gid, op, visit)``, the reference walker too.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from helpers import run_traced  # noqa: E402
from spec_replay import spec_all, spec_merged_rank  # noqa: E402

from repro.core.decompress import (  # noqa: E402
    DecompressionError,
    decompress_all,
    decompress_merged_rank,
    decompress_rank,
)
from repro.core.inter import merge_all  # noqa: E402
from repro.core.ranks import REL, TOR  # noqa: E402
from repro.core.sequences import IntSequence  # noqa: E402
from repro.static.cst import CALL  # noqa: E402
from tests.record_fields import occurrences, set_occurrences  # noqa: E402

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _traced(source, nprocs):
    _, _, cyp, _ = run_traced(source, nprocs)
    ctts = [cyp.ctt(r) for r in range(nprocs)]
    return ctts, merge_all(ctts, nranks=nprocs)


def _fields(traces):
    return {rank: [tuple(e) for e in events] for rank, events in traces.items()}


def _error(replay):
    with pytest.raises(DecompressionError) as exc:
        replay()
    err = exc.value
    return err.rank, err.gid, err.op, err.visit


@settings(**SETTINGS)
@given(program(), st.sampled_from([2, 4]))
def test_replay_equals_the_reference_walker(source, nprocs):
    _, merged = _traced(source, nprocs)
    assert _fields(decompress_all(merged)) == _fields(spec_all(merged))
    assert _fields(decompress_all(merged, nprocs)) == _fields(
        spec_all(merged, nprocs)
    )


def _damage(record, kind, visit):
    """``record`` with ``visit`` dropped from its occurrences (``hole``)
    or its first peer moved past the job (``peer``); doing it twice is
    doing it once, so a record the merged tree shares with a rank's own
    tree may be damaged from both."""
    if kind == "hole":
        set_occurrences(record, IntSequence.from_values(
            [v for v in occurrences(record) if v != visit]
        ))
    else:
        record.key = (record.key[0], (REL, 1 << 20)) + record.key[2:]


@settings(**SETTINGS)
@given(program(), st.sampled_from([2, 4]), st.data())
def test_one_damaged_leaf_raises_alike_everywhere(source, nprocs, data):
    ctts, merged = _traced(source, nprocs)
    sites = [
        (vertex, group, i)
        for vertex in merged.root.preorder() if vertex.kind == CALL
        for group in vertex.groups
        for i, record in enumerate(group.records or ())
    ]
    if not sites:
        return
    peers = [s for s in sites if s[1].records[s[2]].key[1][0] in (REL, TOR)]
    kind = data.draw(st.sampled_from(["hole", "peer"] if peers else ["hole"]))
    vertex, group, i = data.draw(st.sampled_from(peers if kind == "peer" else sites))
    record = group.records[i]
    visit = data.draw(st.sampled_from(list(occurrences(record))))
    for r in group.ranks:  # the same damage in each member's own tree
        # (the group's records are each member's, in order; a TOR peer
        # is the member's REL one re-encoded)
        _damage(ctts[r].vertex(vertex.gid).records[i], kind, visit)
    _damage(record, kind, visit)
    nranks = nprocs if kind == "peer" else None
    want = (vertex.gid, vertex.op, visit if kind == "hole" else -1)

    assert _error(lambda: decompress_all(merged, nranks)) == (group.ranks[0], *want)
    for r in group.ranks:
        expected = (r, *want)
        assert _error(lambda: decompress_merged_rank(merged, r, nranks)) == expected
        assert _error(lambda: decompress_rank(ctts[r], nranks)) == expected
        assert _error(lambda: spec_merged_rank(merged, r, nranks)) == expected
