"""Byte-identity of the comparison baselines (Figs. 15, 16 and 19 read
these numbers).

For every registered workload at its smallest valid rank count, the
sha256 of the serialized ScalaTrace and ScalaTrace-2 traces and each
rank's ``approx_memory`` are pinned.  A refactor of either compressor,
of the tree merge or of the serializers must leave all of them as they
are.  ScalaTrace's alignment hashes term structures, so this file also
runs under a random hash seed.
"""

import hashlib

import pytest

from repro.baselines.rsd import RSD
from repro.baselines.scalatrace import ScalaTraceCompressor, merge_all_queues
from repro.baselines.scalatrace2 import (
    ElasticRSD,
    ScalaTrace2Compressor,
    merge_all_st2,
)
from repro.baselines.serialize import scalatrace2_dumps, scalatrace_dumps
from repro.driver import run_compiled
from repro.mpisim.pmpi import MultiSink
from repro.static.instrument import compile_minimpi
from repro.workloads.registry import WORKLOADS

# Scale 1.0 folds a loop in every shape that can fold one; mg and sp are
# cut to keep the file fast.
SCALE = {"mg": 0.2, "sp": 0.2}

# Shapes whose queues hold no loop term at any scale: at its smallest
# rank count no window of sp's stream repeats, not even by shape
# (Fig. 15h's adversarial case), and none of dt's repeats exactly.
NO_RSD = {"scalatrace": {"dt", "sp"}, "scalatrace2": {"sp"}}

# name: (sha256 of scalatrace_dumps, sha256 of scalatrace2_dumps,
#        ScalaTrace approx_memory per rank, ScalaTrace-2's per rank)
GOLDEN = {
    "amr": (
        "b91317c0253e7276adf56df7e9d96cd4eb3b1068e335fac4cb9b21f8e95e60c2",
        "50b68eb417a42a74b54ae96639c34fb4c94635465a009b0fbaaa87821bd4de68",
        [4024, 1240, 1240, 1240],
        [1448, 1376, 1376, 1376],
    ),
    "bt": (
        "e8e166cad1eb8d72ef0b1a63e7fcf4f9cc985f5da662f5e9f7d46825a14f0d63",
        "1d7a89b2245f347fb6d7ed7f8d0b20c9ba47c5872054175f248e4fc5113a74e6",
        [1844, 1844, 1844, 1844],
        [2040, 2040, 2040, 2040],
    ),
    "cg": (
        "f4ff8f19da54ac8107363230319f058b0a870eee828689ecd4e3c07aae99a09d",
        "889d8bc1fd45e1b2637770256395bd7f6e36548ade9d7601ec1f64adc33260df",
        [2192, 3078, 3078, 2192],
        [3995, 5959, 5959, 3995],
    ),
    "dt": (
        "e079d5e2ca045b28d19758a1635b5d0542a1b22391dfdbabd0aea2e02e4959c1",
        "ae194308956394d80fc33582bfebb2412dcf2e14733c1da72b1cac80b6f1bd6c",
        [1789, 817, 817, 817, 817],
        [913, 897, 897, 897, 897],
    ),
    "ep": (
        "e52c8365e8c23b7007daa4b8c925851e4bdc1b6cd4f5351061e667a479781675",
        "590caa54d538bd8de477352cd5b9a1a27870feb031f889a9496173c43bce7b88",
        [831],
        [738],
    ),
    "farm": (
        "3ed8d3b2e206a0bf3f55ac1c4228600392eb9c25fc35ff0ffdf803606ad9bcba",
        "1cb45f87eac4a3790181aa748f3ee7908d14578a7e6a6671fa1b1dc521da9713",
        [804, 804],
        [888, 888],
    ),
    "fig11": (
        "ff3e9e315f3fcc87638f26d646fb560fe48dc2d487e59a88ea14fb7c7ce619ae",
        "5be991ad382a1f899fb30c6187f90f63a9268280984629f4be4ce1c1f31788d7",
        [645, 645],
        [713, 713],
    ),
    "ft": (
        "ccdf1ce8502fde9243d26bf02cc2396dadf032fed9bee7d561b79ecf663a0ec0",
        "38381af4b95f1a7c799e4bd825f36bea4d1641ea339c45f837d84caf10274325",
        [986, 986, 986, 986],
        [1090, 1090, 1090, 1090],
    ),
    "is": (
        "aecb6439ebec078a9547543da79c03f88e0547d8d69a2c3ce53d15335f3cec3a",
        "76e6e2630b64f60f8b22e1b92e8ad7504a828869f4cfbe64035b811a4935e11b",
        [2526, 2526],
        [1137, 1137],
    ),
    "leslie3d": (
        "63d37a542232e8a10800d6330078c7b184250ee0b3e804dac1b677435d9b4c90",
        "db980e763ee615d239f6d63d6a537ad6a9a140aa9990341ca81dcc773b71d08b",
        [4062, 4062, 4062, 4062, 4062, 4062, 4062, 4062],
        [4311, 4311, 4311, 4311, 4311, 4311, 4311, 4311],
    ),
    "lu": (
        "6894505ac48fd58b6f798a12704bbb2f27bb557afc6dc3e3a5187a76f2d0d8b5",
        "e38fd5d5363ebd65ca53b99a96eb562683c18b007c953d96f73e2a2ed38b9b96",
        [4039, 4039, 4039, 4039],
        [4300, 4300, 4300, 4300],
    ),
    "mg": (
        "f846f1de220bfbc12d9e372c02786ae013b1bda322588036fc7e4cd7220994a9",
        "cbf7de59bc4dc5ec8f44630049c9ac844cbb16252833da035372e1ce204d4e11",
        [21372, 21372, 21372, 21372, 21372, 21372, 21372, 21372],
        [23796, 23796, 23796, 23796, 23796, 23796, 23796, 23796],
    ),
    "sp": (
        "c3e44ca29887989392fb29d6227ae8c4104e043839dbcf5fd3c6aae4ffc89f70",
        "6c586b003ea53f49ffebbcfe68cabf37f856560f14e6b1c03ce98596913403d3",
        [13752, 13752, 13752, 13752],
        [15096, 15096, 15096, 15096],
    ),
}


def _run(name):
    w = WORKLOADS[name]
    nprocs = min(w.valid_procs)
    st, st2 = ScalaTraceCompressor(), ScalaTrace2Compressor()
    run_compiled(
        compile_minimpi(w.source, cypress=False), nprocs,
        defines=w.defines(nprocs, SCALE.get(name, 1.0)),
        tracer=MultiSink([st, st2]),
    )
    return range(nprocs), st, st2


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_workload_is_pinned():
    assert sorted(GOLDEN) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_baseline_bytes_and_memory(name):
    ranks, st, st2 = _run(name)
    st_sha, st2_sha, st_mem, st2_mem = GOLDEN[name]
    for method, comp, loop in (("scalatrace", st, RSD),
                               ("scalatrace2", st2, ElasticRSD)):
        folded = any(isinstance(t, loop) for r in ranks for t in comp.queue(r))
        assert folded == (name not in NO_RSD[method]), method
    assert _sha(scalatrace_dumps(
        merge_all_queues({r: st.queue(r) for r in ranks})
    )) == st_sha
    assert _sha(scalatrace2_dumps(
        merge_all_st2({r: st2.queue(r) for r in ranks})
    )) == st2_sha
    assert [st.approx_memory(r) for r in ranks] == st_mem
    assert [st2.approx_memory(r) for r in ranks] == st2_mem
