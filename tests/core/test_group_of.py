"""``MergedVertex.group_of`` (a bisection of each group's rank list)
against a naive scan, and what a load of the widest benchmark job
parses: each distinct rank set once."""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, "tests")
from helpers import E2E_SHAPES, e2e_trees  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import serialize  # noqa: E402
from tests.faults.payload import corrupt_merged  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
GOLDENS = sorted(p.name for p in DATA.glob("golden_*_v[78].cyp"))


def _naive_group_of(vertex, rank):
    found = None
    for group in vertex.groups.values():
        if rank in group.ranks:
            found = group
    return found


def assert_group_of_is_a_scan(merged):
    """Every rank in ``[-1, P]`` at every vertex."""
    for vertex in merged.vertices():
        for rank in range(-1, merged.nranks_merged + 1):
            assert vertex.group_of(rank) is _naive_group_of(vertex, rank), (
                vertex.gid, rank
            )


@pytest.mark.parametrize("golden", GOLDENS)
def test_goldens(golden):
    assert_group_of_is_a_scan(serialize.loads((DATA / golden).read_bytes()))


@pytest.mark.parametrize("name", sorted(E2E_SHAPES))
def test_e2e_shapes_merged_and_loaded(name):
    for tree in e2e_trees(name):
        assert_group_of_is_a_scan(tree)
        assert_group_of_is_a_scan(serialize.loads(serialize.dumps(tree)))


def test_overlapping_groups_answer_with_the_last():
    # Damage the checker reports; a query still gets one group.
    merged = serialize.loads((DATA / "golden_mg_v8.cyp").read_bytes())
    corrupt_merged(merged, "rank-overlap", random.Random(1))
    assert_group_of_is_a_scan(merged)


def test_wide_mg_parses_each_distinct_rank_set_once():
    (tree,) = e2e_trees("wide_mg")
    blob = serialize.dumps(tree)
    registry = obs.enable()
    try:
        serialize.loads(blob)
    finally:
        obs.disable()
    assert registry.counters["serialize.rank_sets"] == 192
    assert registry.counters["serialize.rank_sets_parsed"] == 32
