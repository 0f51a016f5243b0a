"""A loaded tree holds its leaves as decoded columns (PR 24).

``serialize.loads`` hands every leaf group its ``LeafColumns`` block and
builds no ``CompressedRecord``, no signature key; ``Group.records``
builds the records on first access, and from then on they are the truth.
This file pins what that laziness must not change:

(a) the records, once built, are the ones that were written, field for
    field, and share no mutable state;
(b) every refusal is still ``loads``' own — nothing moved to the moment
    a record is asked for, and a damaged file that does load can be
    materialised, signed and queried without an exception;
(c) the counters say whether a run paid for objects;
(d) a record mutated after loading is what every reader sees;
(e) a loaded tree does not merge."""

import pathlib
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
sys.path.insert(0, "tests/core")
from generators import program  # noqa: E402
from helpers import run_traced, tree_fields  # noqa: E402
from test_serialize_decoder import _BAD_LEAVES  # noqa: E402
from test_serialize_golden import GOLDEN, _fresh_tree, _golden  # noqa: E402

from repro import obs, query  # noqa: E402
from repro.core import TraceFormatError, run_cypress, serialize  # noqa: E402
from repro.core.decompress import decompress_all  # noqa: E402
from repro.core.errors import MergeError  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.static.cst import CALL  # noqa: E402
from repro.verify.invariants import check_merged  # noqa: E402
from repro.workloads import get as get_workload  # noqa: E402
from tests.faults.matrix import EXPECTED_CODES  # noqa: E402
from tests.faults.payload import corrupt_merged  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

#: The five benchmarks/e2e shapes at smoke size (scale / 10, 64 ranks
#: for 256); ``serve_mixed`` is its two jobs.
E2E_SMOKE = {
    "loop_fig11": ("fig11", 4, 0.5),
    "irregular_sp": ("sp", 16, 0.3),
    "wide_mg": ("mg", 64, 0.01),
    "budget_cg": ("cg", 8, 0.3),
    "serve_mixed/fig11": ("fig11", 4, 1.0),
    "serve_mixed/farm": ("farm", 8, 2.0),
}


def _e2e_tree(shape: str, timing_mode: str = "meanstd"):
    name, nprocs, scale = E2E_SMOKE[shape]
    w = get_workload(name)
    run = run_cypress(
        w.source, nprocs, defines=w.defines(nprocs, scale),
        config=CypressConfig(timing_mode=timing_mode),
    )
    return run.merge()


def _leaf_groups(merged):
    return [
        (v, g) for v in merged.vertices() if v.kind == CALL
        for g in v.sorted_groups()
    ]


def _record_count(merged) -> int:
    return sum(len(g.records) for _, g in _leaf_groups(merged))


def assert_loads_what_was_written(fresh, blob=None):
    """``blob`` (``dumps(fresh)`` unless given) reloads to ``fresh``'s
    records, shares nothing mutable between them, and redumps to itself."""
    if blob is None:
        blob = serialize.dumps(fresh)
    loaded = serialize.loads(blob)
    assert all(g._records is None for _, g in _leaf_groups(loaded))
    mutable = []
    for (_, want), (_, got) in zip(
        _leaf_groups(fresh), _leaf_groups(loaded), strict=True
    ):
        assert got.ranks == want.ranks
        records = got.records
        assert got.records is records  # built once, then held
        for mine, theirs in zip(records, want.records, strict=True):
            assert mine.key == theirs.key
            assert mine.occurrences.terms == theirs.occurrences.terms
            assert mine.occurrences.length == theirs.occurrences.length
            assert len(mine.occurrences) == sum(
                count for _, count, _ in mine.occurrences.terms
            )
            assert mine.pending is False and not theirs.pending
            for a, b in ((mine.duration, theirs.duration),
                         (mine.pre_gap, theirs.pre_gap)):
                assert (a.mode, a.count, a.bins) == (b.mode, b.count, b.bins)
                if a.count:  # an empty block's ±inf extremes are 0.0 on disk
                    assert (a.mean, a.m2, a.minimum, a.maximum) == (
                        b.mean, b.m2, b.minimum, b.maximum
                    )
                mutable += [a] + ([a.bins] if a.bins is not None else [])
            mutable.append(mine.occurrences.terms)
        assert got.signature == want.signature  # the key, built from the block
    assert len({id(x) for x in mutable}) == len(mutable)
    assert tree_fields(loaded) == tree_fields(serialize.loads(blob))
    assert serialize.dumps(loaded) == blob


# ---------------------------------------------------------------------------
# (a) the records are the ones that were written.


class TestRecordsAreWhatWasWritten:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_files(self, name):
        assert_loads_what_was_written(_fresh_tree(name), _golden(name))

    @pytest.mark.parametrize("shape", sorted(E2E_SMOKE))
    def test_e2e_shapes(self, shape):
        assert_loads_what_was_written(_e2e_tree(shape))

    def test_histogram_bins_are_each_record_s_own(self):
        fresh = _e2e_tree("irregular_sp", timing_mode="hist")
        assert any(
            r.duration.bins for _, g in _leaf_groups(fresh) for r in g.records
        )
        assert_loads_what_was_written(fresh)

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(program(allow_functions=True), st.sampled_from(["meanstd", "hist"]))
    def test_drawn_programs(self, source, timing_mode):
        _, _, cyp, _ = run_traced(
            source, 4, config=CypressConfig(timing_mode=timing_mode)
        )
        assert_loads_what_was_written(
            merge_all([cyp.ctt(r) for r in range(4)])
        )


# ---------------------------------------------------------------------------
# (b) every refusal is ``loads``' own.


def _materialise_everything(merged) -> None:
    """Whatever a reader can ask of a loaded tree's leaf blocks (the
    tree may be wrong — a group without ranks, say — so nothing here
    leans on more than the blocks)."""
    groups = [
        g for v in merged.vertices() if v.kind == CALL
        for g in v.groups.values()
    ]
    for by in ("vertex", "op"):
        query.traffic(merged, group_by=by)
    query.critical_leaves(merged)
    for rank in sorted({r for g in groups for r in g.ranks})[:2]:
        query.rank_profile(merged, rank)
    for group in groups:
        assert group.signature.key[0] == "R"
        assert len(group.records) == len(group.signature.key[1])


class TestRefusalsStayInLoads:
    @pytest.mark.parametrize("name", sorted(_BAD_LEAVES))
    def test_bad_leaf_is_refused_before_any_record(self, name, monkeypatch):
        body, match = _BAD_LEAVES[name]
        one_leaf = serialize.loads(
            (DATA / "golden_single_v8.cyp").read_bytes()
        )

        def write_leaf(w, records, strings, defaults, stats):
            for rec in records:
                stats.add(rec.duration)
                stats.add(rec.pre_gap)
            body(w, stats)

        monkeypatch.setattr(serialize, "_write_leaf", write_leaf)
        blob = serialize.dumps(one_leaf)
        monkeypatch.undo()

        def never(self):
            raise AssertionError("a refusal moved to materialisation time")

        for lazy in ("records", "view", "signature_key", "_payloads"):
            monkeypatch.setattr(serialize.LeafColumns, lazy, never)
        with pytest.raises(TraceFormatError, match=match):
            serialize.loads(blob)

    # The rows (fig11), the columns (sp is the golden with leaves wide
    # enough for them), and mg's mix of both.
    @pytest.mark.parametrize("name, masks", [
        ("fig11", (1, 128, 255)), ("sp", (1, 128)), ("mg", (1, 128)),
    ])
    def test_a_damaged_file_that_loads_can_be_materialised(self, name, masks):
        # A flipped bit behind a recomputed CRC reaches the body decoder
        # itself.  It may yield a (wrong) tree or TraceFormatError; a
        # tree it yields holds only validated blocks, so nothing a
        # reader asks of it afterwards may raise.
        data = _golden(name)
        sections, complete, _ = serialize.read_sections(data, 5, False)
        assert complete

        def resealed(index, payload):
            w = serialize.ByteWriter()
            w.raw(data[:5])
            for i, (kind, body) in enumerate(sections):
                serialize.write_section(
                    w, kind, payload if i == index else body
                )
            return w.bytes()

        loaded = refused = 0
        rng = random.Random(24)
        for index, (kind, body) in enumerate(sections):
            if kind != 3:  # PAYLOAD
                continue
            # every byte of a small file, a seeded third of a larger one
            for at in range(len(body)):
                if len(body) > 600 and rng.random() > 0.34:
                    continue
                for mask in masks:
                    damaged = bytearray(body)
                    damaged[at] ^= mask
                    try:
                        merged = serialize.loads(
                            resealed(index, bytes(damaged))
                        )
                    except TraceFormatError:
                        refused += 1
                        continue
                    loaded += 1
                    _materialise_everything(merged)
        assert loaded > 0 and refused > 0


# ---------------------------------------------------------------------------
# (c) the counters say whether a run paid for objects.


class TestCounters:
    @pytest.mark.parametrize("shape", sorted(E2E_SMOKE))
    def test_open_and_query_builds_no_record(self, shape, tmp_path):
        fresh = _e2e_tree(shape)
        path = str(tmp_path / "t.cyp")
        serialize.save(fresh, path)
        leaves = [v.gid for v, _ in _leaf_groups(fresh)]
        registry = obs.enable()
        try:
            merged = serialize.load(path)
            query.traffic(merged)
            query.ordering(merged, leaves[0], leaves[-1], 1)
            query.rank_profile(merged, 1)
            query.critical_leaves(merged)
            counters = registry.counters
            assert counters["serialize.leaf_blocks"] == len(_leaf_groups(fresh))
            assert "serialize.records_materialized" not in counters
            assert counters["query.records"] > 0
            # nothing was built for nobody: no record, no signature key
            for _, group in _leaf_groups(merged):
                assert group._records is None
                assert group.signature._key is None

            decompress_all(merged)
            assert check_merged(merged) == []
            decompress_all(merged)
            assert counters["serialize.records_materialized"] == (
                _record_count(fresh)
            )
        finally:
            obs.disable()

    def test_nothing_is_published_with_observability_off(self):
        merged = serialize.loads(_golden("sp"))
        assert obs.active() is None
        assert _record_count(merged) > 0  # materialises, publishes nothing


# ---------------------------------------------------------------------------
# (d) a record mutated after loading is what every reader sees.


class TestMaterialisedRecordsAreTheTruth:
    NPROCS = 8

    def _trees(self):
        w = get_workload("cg")
        run = run_cypress(
            w.source, self.NPROCS, defines=w.defines(self.NPROCS, 0.3)
        )
        fresh = run.merge()
        return fresh, serialize.loads(serialize.dumps(fresh))

    @pytest.mark.parametrize("kind", ["peer-range", "occ-hole"])
    def test_corruption_of_a_loaded_tree(self, kind):
        fresh, loaded = self._trees()
        before = {
            by: query.traffic(loaded, group_by=by)
            for by in ("op", "rank_pair")
        }
        assert check_merged(loaded, nranks=self.NPROCS) == []
        # The same seeded damage to both: same site, same values.
        what = [
            corrupt_merged(tree, kind, random.Random(5), nranks=self.NPROCS)
            for tree in (fresh, loaded)
        ]
        assert what[0] == what[1]
        codes = {v.code for v in check_merged(loaded, nranks=self.NPROCS)}
        # the invariant of the damage, and: the block as decoded no
        # longer signs the records the group now holds
        assert codes & EXPECTED_CODES[kind], codes
        assert "signature-stale" in codes
        after = {
            by: query.traffic(loaded, group_by=by)
            for by in ("op", "rank_pair")
        }
        moved = "op" if kind == "occ-hole" else "rank_pair"
        assert after[moved] != before[moved]
        for by in after:  # answered from the mutated records
            assert after[by] == query.traffic(fresh, group_by=by)
        for rank in range(self.NPROCS):
            assert query.rank_profile(loaded, rank) == (
                query.rank_profile(fresh, rank)
            )


# ---------------------------------------------------------------------------
# (e) a loaded tree does not merge.


class TestLoadedTreeDoesNotMerge:
    def test_every_door_refuses(self):
        w = get_workload("fig11")
        run = run_cypress(w.source, 4, defines=w.defines(4, 0.5))
        ctts = [run.compressor.ctt(r) for r in range(4)]
        fresh = merge_all(ctts)
        loaded = serialize.loads(serialize.dumps(fresh))
        assert loaded.loaded and not fresh.loaded
        for merge in (
            lambda: loaded.add_rank(ctts[0]),
            lambda: loaded.fold_rank(ctts[0]),
        ):
            with pytest.raises(MergeError, match="does not merge"):
                merge()
        # refused before anything moved
        assert serialize.dumps(loaded) == serialize.dumps(fresh)

    def test_a_loaded_signature_compares_by_payload(self):
        fresh = _fresh_tree("fig11")
        loaded = serialize.loads(_golden("fig11"))
        for (_, a), (_, b) in zip(
            _leaf_groups(fresh), _leaf_groups(loaded), strict=True
        ):
            assert b.signature._key is None
            assert a.signature == b.signature and b.signature == a.signature
            assert b.signature.key == a.signature.key
