"""The container body decoder, where the golden files do not reach:
every field it fills (a property over random trees with the extremes
edited in), corruption that carries a *valid* checksum, and the bound
on a group's declared rank-set length."""

import pathlib
import struct
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from helpers import run_traced  # noqa: E402

from repro.core import TraceFormatError, serialize  # noqa: E402
from repro.core.inter import Group, merge_all  # noqa: E402
from repro.core.intra import CypressConfig  # noqa: E402
from repro.core.sequences import IntSequence  # noqa: E402
from repro.core.timing import TimeStats  # noqa: E402
from repro.static.cst import BRANCH, CALL, LOOP  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_FIG11 = ROOT / "tests" / "data" / "golden_fig11.cyp"

_pack = struct.Struct("<d").pack


# ---------------------------------------------------------------------------
# (i) loads(dumps(m)) == m, field for field.


def _seq_fields(seq):
    return None if seq is None else (seq.length, tuple(seq.terms))


def _stats_fields(st):
    # Floats by bit pattern (NaN, -0.0); an empty block's +-inf extremes
    # are written as 0.0, the one normalisation the format makes.
    lo, hi = (st.minimum, st.maximum) if st.count else (0.0, 0.0)
    return (st.mode, st.count, _pack(st.mean), _pack(st.m2), _pack(lo),
            _pack(hi), None if st.bins is None else tuple(st.bins))


def tree_fields(merged):
    """Everything a container carries about ``merged``."""
    vertices = []
    for v in merged.root.preorder():
        groups = [
            (
                tuple(g.ranks), _seq_fields(g.counts), _seq_fields(g.visits),
                None if g.records is None else [
                    (r.key, _seq_fields(r.occurrences), r.pending,
                     _stats_fields(r.duration), _stats_fields(r.pre_gap))
                    for r in g.records
                ],
            )
            for g in v.sorted_groups()
        ]
        vertices.append((
            v.kind, len(v.children), groups,
            (v.op, v.name) if v.kind == CALL else None,
            (v.branch_path or 0, v.ast_id) if v.kind == BRANCH else None,
        ))
    return merged.nranks_merged, vertices


#: Values the workloads never produce: varints of two bytes and more
#: (``2**63`` needs ten), negative zigzags, request gids.
_BIG = st.sampled_from([2**14, 2**21 + 5, 2**35, 2**63])
_NEGATIVE = st.integers(-(2**40), -1)
_GIDS = st.lists(
    st.integers(-300, 2**20), min_size=1, max_size=3
).map(tuple)
_PEER = st.tuples(st.sampled_from(["abs", "rel"]), st.integers(-2**20, 2**20))


def _edit_extremes(data, merged):
    """Push the field values no generated program reaches into
    ``merged`` — at most one group a vertex, with values no untouched
    group holds, so groups at a vertex stay distinct."""
    spare_rank = merged.nranks_merged
    merged.nranks_merged += 1  # the rank that emitted nothing
    for v in merged.vertices():
        if not v.groups:
            if v.kind in (CALL, LOOP, BRANCH) and data.draw(st.booleans()):
                # an empty payload, as a rank that never got here has
                empty = Group(
                    merged.interns.intern(("empty", v.gid)), [spare_rank],
                    counts=IntSequence() if v.kind == LOOP else None,
                    visits=IntSequence() if v.kind == BRANCH else None,
                    records=[] if v.kind == CALL else None,
                )
                v.groups[empty.signature] = empty
            continue
        group = v.sorted_groups()[0]
        if v.kind != CALL or not data.draw(st.booleans()):
            continue
        rec = group.records[data.draw(
            st.integers(0, len(group.records) - 1)
        )]
        op = rec.key[0]
        rec.key = (
            op, data.draw(_PEER), data.draw(_PEER), data.draw(_NEGATIVE),
            data.draw(_NEGATIVE), data.draw(_BIG), data.draw(_BIG),
            data.draw(st.integers(0, 2**16)), data.draw(_NEGATIVE),
            data.draw(st.booleans()), data.draw(_GIDS),
            data.draw(st.integers(-1, 2**16)),
        )
        rec.occurrences = IntSequence.from_values(
            data.draw(st.lists(st.integers(0, 2**33), max_size=6))
        )
        stats = rec.duration
        stats.mean, stats.m2, stats.minimum, stats.maximum = data.draw(
            st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4)
        )
        # count == 0: extremes of +-inf here, 0.0 in the file
        rec.pre_gap = TimeStats(mode=stats.mode)


class TestFieldForField:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        program(allow_functions=True), st.sampled_from(["meanstd", "hist"]),
        st.data(),
    )
    def test_loads_rebuilds_every_field(self, source, timing_mode, data):
        nprocs = 4  # the generator pairs ranks by XOR
        _, _, cyp, _ = run_traced(
            source, nprocs, config=CypressConfig(timing_mode=timing_mode)
        )
        merged = merge_all([cyp.ctt(r) for r in range(nprocs)])
        _edit_extremes(data, merged)
        want = tree_fields(merged)
        for chunk_bytes in (1, 64, serialize._CHUNK_BYTES):
            blob = serialize.dumps(merged, chunk_bytes=chunk_bytes)
            back = serialize.loads(blob)
            assert tree_fields(back) == want
            assert serialize.dumps(back, chunk_bytes=chunk_bytes) == blob


# ---------------------------------------------------------------------------
# The rank-set bound.


class TestRankSetBound:
    def test_oversized_rank_set_is_refused_cheaply(self):
        merged = serialize.loads(GOLDEN_FIG11.read_bytes())
        group = next(
            g for v in merged.vertices() for g in v.groups.values()
        )
        # What ``dumps`` writes for the group's members: one stride term,
        # six bytes, every section checksum valid.
        group._rank_seq = IntSequence(terms=[(0, 10**11, 1)], length=10**11)
        blob = serialize.dumps(merged)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(TraceFormatError, match=r"vertex \d+: a group"):
                serialize.loads(blob)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 1 << 20  # the parent built a 10**11-element list

    def test_full_membership_still_loads(self):
        blob = GOLDEN_FIG11.read_bytes()
        merged = serialize.loads(blob)
        assert max(
            len(g.ranks) for v in merged.vertices() for g in v.groups.values()
        ) == merged.nranks_merged


# ---------------------------------------------------------------------------
# (ii) corruption behind a valid checksum.

#: Runs on its own, importing only the loader, so the address-space
#: limit measures the loader and not the test process.
_RESEALED_SWEEP = r"""
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from repro.core import TraceFormatError, serialize

data = open(sys.argv[1], "rb").read()
sections, complete, _ = serialize.read_sections(data, 5, False)
assert complete and serialize.loads(data)

def resealed(index, payload):
    w = serialize.ByteWriter()
    w.raw(data[:5])
    for i, (kind, body) in enumerate(sections):
        serialize.write_section(w, kind, payload if i == index else body)
    return w.bytes()

loaded = refused = 0
started = time.perf_counter()
for index, (kind, body) in enumerate(sections):
    if kind != 3:  # PAYLOAD
        continue
    assert resealed(index, body) == data
    for at in range(len(body)):
        for mask in (0x01, 0x80, 0xFF):
            damaged = bytearray(body)
            damaged[at] ^= mask
            try:
                serialize.loads(resealed(index, bytes(damaged)))
                loaded += 1
            except TraceFormatError:
                refused += 1
print(loaded, refused, time.perf_counter() - started)
"""


class TestResealedCorruption:
    def test_payload_flips_load_or_raise_trace_format_error(self):
        # A flipped bit behind a recomputed CRC reaches the body decoder
        # itself: it may yield a (wrong) tree or TraceFormatError, never
        # another exception, a hang or a large allocation.
        out = subprocess.run(
            [sys.executable, "-c", _RESEALED_SWEEP, str(GOLDEN_FIG11)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
            env={"PYTHONPATH": "src"},
        )
        assert out.returncode == 0, out.stderr
        loaded, refused, seconds = out.stdout.split()
        assert int(loaded) > 0 and int(refused) > 0
        assert float(seconds) < 5.0
