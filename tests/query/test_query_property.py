"""Differential property: random programs × compression variants —
every query equals its replay oracle.

Two tiers:

* a light always-on property (``compress_streams`` of the captured
  lists) that rides in tier-1;
* the full sweep over {spec, lists, packed} compression (the spec is
  the naive compressor in ``tests/spec_compress.py``), marked ``slow``.
  It runs a small number of examples by default (tier-1 has no marker
  filter) and CI's query-differential job raises
  ``QUERY_SWEEP_EXAMPLES`` for a deeper pass.
"""

import itertools
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from spec_compress import spec_compress_streams  # noqa: E402

from repro import query  # noqa: E402
from repro.core import packed, serialize  # noqa: E402
from repro.core.decompress import decompress_all  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.intra import compress_streams  # noqa: E402
from repro.driver import capture_run  # noqa: E402
from repro.static.cst import CALL  # noqa: E402

NPROCS = 4

SWEEP_EXAMPLES = int(os.environ.get("QUERY_SWEEP_EXAMPLES", "10"))

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _compressed(compiled, streams, variant: str):
    """Every rank's CTT, compressed by ``variant``."""
    streams = {r: streams.get(r, []) for r in range(NPROCS)}
    if variant == "spec":
        return spec_compress_streams(compiled.cst, streams)
    if variant == "packed":
        streams = {rank: packed.encode_stream(stream).to_bytes()
                   for rank, stream in streams.items()}
    comp = compress_streams(compiled.cst, streams)
    return [comp.ctt(r) for r in range(NPROCS)]


def _merged(compiled, streams, variant: str):
    return merge_all(_compressed(compiled, streams, variant))


def _check_all_queries(merged, label: str, traces=None) -> dict:
    """Every query on ``merged`` against its oracle over ``traces``
    (``merged``'s own replay unless handed in)."""
    if traces is None:
        traces = decompress_all(merged)
    # ``rank_pair`` decodes peers per record: asked last, so that on a
    # loaded tree everything before it reads the decoded leaf blocks.
    for group_by in ("vertex", "op"):
        assert not query.agreement_errors(
            query.traffic(merged, group_by=group_by),
            query.traffic_via_replay(merged, group_by=group_by,
                                     traces=traces),
            f"{label}/traffic.{group_by}",
        )
    for rank in range(NPROCS):
        assert not query.agreement_errors(
            query.rank_profile(merged, rank),
            query.rank_profile_via_replay(merged, rank,
                                          events=traces.get(rank, [])),
            f"{label}/rank_profile.{rank}",
        )
    assert not query.agreement_errors(
        query.critical_leaves(merged, k=10**9),
        query.critical_leaves_via_replay(merged, k=10**9, traces=traces),
        f"{label}/critical_leaves",
    )
    index = query.TreeIndex(merged)
    leaves = [v.gid for v in merged.root.preorder() if v.kind == CALL][:6]
    for rank in range(min(NPROCS, 2)):
        events = traces.get(rank, [])
        for gid_a, gid_b in itertools.product(leaves, repeat=2):
            assert not query.agreement_errors(
                query.ordering(merged, gid_a, gid_b, rank, index=index),
                query.ordering_via_replay(merged, gid_a, gid_b, rank,
                                          events=events),
                f"{label}/ordering.{gid_a}-{gid_b}.r{rank}",
            )
    assert not query.agreement_errors(
        query.traffic(merged, group_by="rank_pair"),
        query.traffic_via_replay(merged, group_by="rank_pair", traces=traces),
        f"{label}/traffic.rank_pair",
    )
    return traces


def _check_fresh_and_loaded(merged, label: str) -> None:
    """The tree as merged, then the tree a user opens — asked before
    anything has built a record from its leaf blocks, and held to the
    fresh tree's replay (the round trip is lossless)."""
    traces = _check_all_queries(merged, label)
    loaded = serialize.loads(serialize.dumps(merged))
    _check_all_queries(loaded, f"{label}/loaded", traces)


class TestQueryDifferential:
    @settings(max_examples=10, **SETTINGS)
    @given(program(allow_functions=True))
    def test_fastpath_tree_light(self, source):
        compiled, _, streams, _ = capture_run(source, NPROCS)
        merged = _merged(compiled, streams, "lists")
        _check_fresh_and_loaded(merged, "lists")

    @pytest.mark.slow
    @settings(max_examples=SWEEP_EXAMPLES, **SETTINGS)
    @given(program(allow_functions=True, allow_subcomms=True))
    def test_full_variant_matrix(self, source):
        compiled, _, streams, _ = capture_run(source, NPROCS)
        for variant in ("spec", "lists", "packed"):
            merged = _merged(compiled, streams, variant)
            _check_fresh_and_loaded(merged, variant)
