"""The captured item stream, pinned item for item.

Every producer (runtime, compiled interpreter, Python frontend) reaches
a sink through one emitter per rank, and every later layer — packing,
ingest, the container — consumes what the capture sink keeps.  These
digests were written from the stream as it stood before the emitters,
so any change to what is emitted, in what order, with what values,
fails here before it can move a byte further down.

Markers, request completions and the finalize item are hashed as they
are; an event as its ``replay_tuple()`` plus ``time_start`` and
``duration`` (the fields the compressor reads).
"""

import hashlib

import pytest

from repro.driver import capture_run
from repro.frontend import S, run_python
from repro.mpisim.pmpi import OP_EVENT, StreamCaptureSink
from repro.workloads import get

#: (workload, nprocs, scale) -> one sha256 per rank, rank order.
GOLDEN = {
    ("fig11", 4, 1.0): [
        "f6d681f8568a311b0bf7e59e38d8b8497093694a1e928f8537c2ff5fe43e0876",
        "74a0b08ab3f11008c752903852d4a6badd890f3191e4f9621b2f1e3821107849",
        "cdc27a0e4e385c9bef36d5041a6884e6397e84be810c5d8869d25c6c7beae622",
        "5d2869b1870db6f6af96cd4ca2fd513774cb03ddaf1109bac276b847fd20ea8c",
    ],
    ("sp", 4, 1.0): [
        "4d594daedc47a8fc45698c14fa6c67e4a43674937560fe66dd198c92bea24884",
        "047d7796dc1955ead7cf76f17f33e70f28cbd1344e0256898ebf389adf7ea708",
        "c0e125cfa52ce1947eb585525b5dbd35deb6e75c9ce4f9d3d380b402d1e77c8d",
        "fa3b2f0acf80c7a26e3edbfc810ea8db2afc03df56b73cf8814e142374d13d76",
    ],
    ("mg", 8, 0.2): [
        "f191851f3eea0757eeb56752893b0d469ee4374c5c767d86d6932f6687584ccd",
        "2c9458c9a5047b43b4c2f05ec32ef902a7e414ee639e65f265c596adafbd9174",
        "fe4a817387ebfe2727b4dfef9335e030fbae2b0fc3c49203f5d79897316d45a2",
        "8fab96d26e2bc6b4f106b8aac622bb3005c809def02538504bc05ef2ac77a7aa",
        "92436ed17d8794bad51a4424ace36ba09d2ab5a95172d60c88c9a68e6e538f29",
        "c95cf3932abb84c9c24ceee6b740bb362ca6ebc2826b0e49c48155414a97d027",
        "509020d8fbe8e84606c6e385ea105fd9046d8b22b923362b2b8c92f75a926ff5",
        "7f513466b7d45a3716e98f28b996311f9bc752c5d1340cef8bd1b23c12cf97af",
    ],
    ("cg", 8, 1.0): [
        "2f56f6caf0058a18fc06ce726c68d47a04d60732a9b9743b71c5f6264661dc30",
        "0bb2d47199f4c3c4b7defdce64cfc6e8db69fdd6b16f04e0bfe1d40c3ee2fd8a",
        "72417974ffe51eda8bcbd1896dc2506e6a5f4daee36b38ac2ce3f3602414a838",
        "89024afd7796f9fac683ae9076c2ae9ee70dce68afa4d0b159f8bb3249a23c95",
        "703f52f46348cd7cce4fb475441d8f69dcbfdb6216cd2a9ad4831869b6162d26",
        "72db1d0dbc8b974c060e678bb21a94121d78b9e2d0d6fa4735d9bd234ed77bc0",
        "7b25a3baaf4132ef4e65319cc2797ec07407108eeecb3c5e30743ef013dcb91f",
        "b95a460d4c7a5a1f01e72b4499f54a04baf596db908d25731285a4233872051e",
    ],
    ("farm", 8, 1.0): [
        "badf115452159ee5b67ffcd6253b2c0530af9a1f66833bd7be713a8565efff70",
        "9e61e3b6399cb5101a74ae7e375b36d7192c46adacad3cddfebf0784cec83f1c",
        "8bc2e3df988337e8368103daf54d9b90c9d7a8843849ad6993bc08bc6d374c88",
        "4064ad754e8a084f67dc8a232e9b303c4fc8c71217e682f68a56c0c8288b2f77",
        "7a8cafe476d4908b614ec830d193f447a2eb4189096959dc746e6760924b9b17",
        "fb328b01a9d21bcec70774692188251d779bfdcd11c7e3dc1eb3d5f391ea84e0",
        "f1a5a60241d0dfe0b1071cba0dc9cf7ab3c07fb0e02ea43e8875bc8e9df66495",
        "1057722fd39dc85248d77794ff90c3f37b89e65e0b6282fc92e6ed3354334151",
    ],
}


def stream_digest(stream) -> str:
    h = hashlib.sha256()
    for item in stream:
        if item[0] == OP_EVENT:
            ev = item[1]
            item = (OP_EVENT, ev.replay_tuple(), ev.time_start, ev.duration)
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def rank_digests(workload: str, nprocs: int, scale: float) -> list[str]:
    w = get(workload)
    capture = capture_run(w.source, nprocs, w.defines(nprocs, scale))
    assert sorted(capture.streams) == list(range(nprocs))
    return [stream_digest(capture.streams[r]) for r in range(nprocs)]


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: k[0])
def test_capture_stream_matches_golden(key):
    assert rank_digests(*key) == GOLDEN[key]


def test_a_rank_that_emits_nothing_has_no_stream_and_no_ctt():
    def rank_main(tc):
        if tc.rank == 0:
            yield from tc.mpi("mpi_init")

    capture = StreamCaptureSink()
    run = run_python(
        rank_main, S.root(S.call("mpi_init")), 3, extra_sinks=[capture]
    )
    assert list(capture.streams) == [0]
    assert run.compressor.ranks() == [0]
