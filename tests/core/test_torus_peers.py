"""Torus-relative peers: the merge's final pass (``MergedCTT.finish``)
and container v9's TOR peer.

The pass is checked against ``tests/spec_merge.py``, which spells its
rule out naively, on generated programs that shift around 1-D, 2-D and
3-D grids (``tests/generators.program``), through every path that
finishes a merge: ``merge_all``, a 1-byte-budget fold fed shuffled
chunks, and the daemon's finalize after a recovery.  A TOR peer decodes
to the rank its REL delta named, for every member; a v9 file whose
torus or shift is impossible is refused as a damaged file."""

import random
import sys
import tempfile
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from spec_merge import spec_merge  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.errors import MergeError, TraceFormatError  # noqa: E402
from repro.core.inter import Group, _wrapped_keys, merge_all  # noqa: E402
from repro.core.intra import (  # noqa: E402
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from repro.core.ranks import REL, TOR, decode_peer, try_decode_peer  # noqa: E402
from repro.core.records import CompressedRecord  # noqa: E402
from repro.driver import capture_run  # noqa: E402
from repro.server import daemon  # noqa: E402
from repro.server.client import split_batches  # noqa: E402
from repro.server.session import SessionStore  # noqa: E402
from repro.static.cst import CALL  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "data"

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _budget_fold(cst, streams, nprocs, seed, chunk=5):
    """A 1-byte budget fed each rank's stream in ``chunk``-item pieces,
    the ranks' pieces interleaved in a seeded order."""
    rng = random.Random(seed)
    comp = IntraProcessCompressor(
        cst, config=CypressConfig(memory_budget_bytes=1)
    )
    comp.enable_incremental_fold(nranks=nprocs, domain=sorted(streams))
    queues = {
        rank: deque(stream[i:i + chunk] for i in range(0, len(stream), chunk))
        for rank, stream in streams.items()
    }
    try:
        while queues:
            rank = rng.choice(sorted(queues))
            comp.ingest_stream(rank, queues[rank].popleft())
            if not queues[rank]:
                del queues[rank]
                comp.seal_rank(rank)
        return serialize.dumps(comp.merged(nranks=nprocs))
    finally:
        comp.close_spill()


def _server_finalize(source, streams, nprocs) -> bytes:
    """The daemon's finalize, reached by recovering every rank's session
    log (1-byte budget, four-item batches)."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        daemon, "get_workload", lambda name: SimpleNamespace(source=source)
    ):
        cfg = daemon.ServerConfig(
            state_dir=f"{tmp}/state", out_dir=f"{tmp}/out", memory_budget=1,
        )
        store = SessionStore(cfg.state_dir)
        for rank, stream in streams.items():
            session = store.create("torus", rank, nprocs, "generated", 1.0)
            for seq, blob in enumerate(split_batches(stream, 4), start=1):
                store.accept(session, seq, blob)
            session.eos_seq = session.acked_seq
            store.record_state(session)
            store.checkpoint(session)
        server = daemon.CypressTraceServer(cfg)
        assert server.recover() == nprocs
        return Path(server.out_path("torus")).read_bytes()


class TestEveryPathIsTheSpec:
    @settings(**SETTINGS)
    @given(program(allow_functions=True), st.sampled_from([4, 6, 8]),
           st.integers(0, 2**16))
    def test_random_programs(self, source, nprocs, seed):
        compiled, _, streams, _ = capture_run(source, nprocs)
        assume(len(streams) == nprocs)  # every rank has a session to end
        ctts = compress_streams(compiled.cst, streams).ctt
        want = serialize.dumps(
            spec_merge([ctts(r) for r in range(nprocs)], nranks=nprocs)
        )
        assert serialize.dumps(
            merge_all([ctts(r) for r in range(nprocs)], nranks=nprocs)
        ) == want
        assert _budget_fold(compiled.cst, streams, nprocs, seed) == want
        assert _server_finalize(source, streams, nprocs) == want


class TestFinishedTree:
    def test_takes_no_further_rank_and_finishes_once(self):
        compiled, _, streams, _ = capture_run(
            "func main() { mpi_barrier(); }", 2
        )
        comp = compress_streams(compiled.cst, streams)
        merged = merge_all([comp.ctt(0)], nranks=2)
        assert merged.finished and merged.job_size == 2
        with pytest.raises(MergeError, match="finished"):
            merged.add_rank(comp.ctt(1))
        assert merged.finish(4) is merged and merged.job_size == 2


def _record(delta: int) -> CompressedRecord:
    return CompressedRecord.first(
        ("MPI_Send", (REL, delta), (REL, -delta)) + (0,) * 9, 0, 1.0, 1.0
    )


class TestEncodeDecode:
    @given(
        s=st.integers(1, 8), m=st.integers(2, 9), blocks=st.integers(1, 4),
        k=st.integers(-8, 8), data=st.data(),
    )
    def test_a_tor_peer_decodes_to_the_rel_one(self, s, m, blocks, k, data):
        job = s * m * blocks
        ranks = sorted(data.draw(st.sets(
            st.integers(0, job - 1), min_size=1, max_size=6
        )))
        d = k * s
        group = Group(ranks, sources=[[_record(d)]])
        (key,) = _wrapped_keys(group, s, m)
        for slot, delta in ((1, d), (2, -d)):
            enc = key[slot]
            stays = all(
                0 <= r % (s * m) + delta < s * m for r in ranks
            )
            assert (enc[0] == TOR) == stays, enc
            if enc[0] == TOR:
                _, t, s_, m_ = enc
                assert (s_, m_) == (s, m) and -m < 2 * t <= m
            for r in ranks:
                ok = 0 <= r + delta < job
                assert try_decode_peer(enc, r, job) == (r + delta, ok)
                if ok:
                    assert decode_peer(enc, r, job) == r + delta


def _torus_vertex(merged):
    return next(v for v in merged.vertices() if v.torus is not None)


def _tor_record(vertex):
    return next(
        rec for group in vertex.groups for rec in group.records
        if rec.key[1][0] == TOR
    )


class TestHostileV9:
    """What a v9 file may not declare, refused by ``loads`` as a damaged
    file (never a ``ZeroDivisionError``), every checksum valid."""

    @staticmethod
    def _golden():
        return serialize.loads((DATA / "golden_mg_v9.cyp").read_bytes())

    def test_the_golden_holds_a_torus(self):
        merged = self._golden()
        vertex = _torus_vertex(merged)
        assert vertex.kind == CALL and merged.job_size == 8
        assert _tor_record(vertex).key[1][2:] == vertex.torus

    @pytest.mark.parametrize("torus", [
        (0, 2), (0, 0), (1, 0), (1, 1), (4, 1), (1, 3), (3, 2), (16, 2),
    ])
    def test_impossible_torus(self, torus):
        merged = self._golden()
        _torus_vertex(merged).torus = torus
        with pytest.raises(TraceFormatError, match="torus stride"):
            serialize.loads(serialize.dumps(merged))

    @pytest.mark.parametrize("shift", [-5, 5, 9, -(2**40)])
    def test_shift_past_half_the_ring(self, shift):
        merged = self._golden()
        vertex = _torus_vertex(merged)
        s, m = vertex.torus
        assert 2 * abs(shift) > m
        rec = _tor_record(vertex)
        rec.key = (rec.key[0], (TOR, shift, s, m)) + rec.key[2:]
        with pytest.raises(TraceFormatError, match="peer mode 2"):
            serialize.loads(serialize.dumps(merged))

    def test_tor_peer_without_a_torus(self):
        merged = self._golden()
        vertex = _torus_vertex(merged)
        vertex.torus = None
        with pytest.raises(TraceFormatError, match="peer mode 2"):
            serialize.loads(serialize.dumps(merged))

    def test_job_size_zero(self):
        merged = self._golden()
        merged.nranks_merged = merged.job_size = 0
        with pytest.raises(TraceFormatError):
            serialize.loads(serialize.dumps(merged))

    def test_a_torus_in_a_v8_file(self):
        blob = serialize.dumps(self._golden())
        with pytest.raises(TraceFormatError, match="rank set is empty"):
            serialize.loads(blob[:4] + bytes([8]) + blob[5:])

    def test_a_job_size_no_larger_than_the_ranks_merged(self):
        merged = self._golden()
        blob = serialize.dumps(merged)
        merged.job_size = 16
        longer = serialize.dumps(merged)
        assert serialize.loads(longer).rank_span() == 16
        assert len(longer) == len(blob) + 1
        with pytest.raises(TraceFormatError, match="header"):
            serialize.loads(longer[:4] + bytes([8]) + longer[5:])
