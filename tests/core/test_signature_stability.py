"""Container bytes must not depend on the signature hash.

``Signature`` caches ``hash(key)``, which carries the per-process
``PYTHONHASHSEED`` salt.  Nothing written to a container may follow it:
groups are written by lowest member rank, statistics fold in ascending
rank order, dicts are read in insertion order.  These tests pin that
*property* — the same bytes under different salts, whatever order the
ranks arrive in — plus a foreign signature's lookup in an intern table
and the intern hit rate of the merge.
"""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.inter import InternTable, MergedCTT, Signature, merge_all  # noqa: E402
from repro.core.intra import IntraProcessCompressor  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402
from repro.workloads import get as get_workload  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"

KEY = ("MPI_Send", 3, -100, 0, 0, 64, 0, 0, -1, False, (), -1)

#: Irregular records, and groups that differ by rank.
SHAPES = (("sp", 4, 0.1), ("mg", 16, 0.1))


def container_digests() -> dict[str, str]:
    """SHA-256 of every container this process can be asked for: each
    shape merged with ranks arriving ascending, descending and shuffled
    through ``add_rank`` and pairwise through ``from_rank`` + ``absorb``,
    and each golden file loaded and dumped again.  Runs in this process
    and, through ``-c``, under other hash seeds."""
    out = {}
    for name, nprocs, scale in SHAPES:
        workload = get_workload(name)
        compiled = compile_minimpi(workload.source)
        comp = IntraProcessCompressor(compiled.cst)
        run_compiled(
            compiled, nprocs, defines=workload.defines(nprocs, scale),
            tracer=comp,
        )
        ctts = [comp.ctt(rank) for rank in range(nprocs)]
        shuffled = list(ctts)
        random.Random(7).shuffle(shuffled)
        orders = {
            "ascending": ctts, "descending": ctts[::-1], "shuffled": shuffled,
        }
        blob = serialize.dumps(merge_all(ctts, nranks=nprocs))
        out[f"{name}/merge_all"] = hashlib.sha256(blob).hexdigest()
        for label, order in orders.items():
            single = MergedCTT.from_rank(order[0], nranks=nprocs)
            pairwise = MergedCTT.from_rank(order[0], nranks=nprocs)
            for ctt in order[1:]:
                single.add_rank(ctt, nprocs)
                # its own intern table: every signature arrives foreign
                pairwise.absorb(MergedCTT.from_rank(ctt, nranks=nprocs))
            for route, merged in (("add_rank", single), ("absorb", pairwise)):
                blob = serialize.dumps(merged.finalize())
                out[f"{name}/{label}/{route}"] = hashlib.sha256(blob).hexdigest()
    for path in sorted(DATA.glob("golden_*.cyp")):
        blob = serialize.dumps(serialize.loads(path.read_bytes()))
        out[f"redump/{path.name}"] = hashlib.sha256(blob).hexdigest()
    return out


class TestStableHash:
    def test_foreign_signature_indexes_intern_table(self):
        table = InternTable()
        local = table.intern(KEY)
        foreign = Signature(tuple(KEY))
        assert foreign == local and hash(foreign) == hash(local)
        assert table.canon(foreign) is local
        assert table.hits == 1

    def test_bytes_identical_across_hash_seeds(self):
        here = container_digests()
        # Every arrival order and both merge routes agree in-process ...
        for name, _nprocs, _scale in SHAPES:
            assert len({
                digest for key, digest in here.items()
                if key.startswith(f"{name}/")
            }) == 1, name
        # ... the goldens survive a load and dump ...
        for path in sorted(DATA.glob("golden_*.cyp")):
            assert here[f"redump/{path.name}"] == hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
        # ... and a process with another salt writes the same bytes.
        code = (
            "import json; "
            "from tests.core.test_signature_stability import container_digests; "
            "print(json.dumps(container_digests()))"
        )
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH="src")
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, cwd=ROOT, env=env,
            )
            assert json.loads(out.stdout) == here, f"PYTHONHASHSEED={seed}"


class TestInternHitRate:
    def test_merge_interns_hit(self):
        # Ranks running the same SPMD loop produce identical signature
        # keys; the merge must find them in its intern table rather
        # than founding a signature per rank.
        src = """
        func main() {
          var rank = mpi_comm_rank();
          var size = mpi_comm_size();
          for (var i = 0; i < 6; i = i + 1) {
            if (rank < size - 1) { mpi_send(rank + 1, 64, 1); }
            if (rank > 0) { mpi_recv(rank - 1, 64, 1); }
            mpi_allreduce(8);
          }
        }
        """
        _, _, cyp, _ = run_traced(src, 4)
        merged = merge_all([cyp.ctt(r) for r in range(4)])
        assert merged.interns.hits > 0
