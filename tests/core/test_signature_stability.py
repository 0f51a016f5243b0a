"""Signature hashing must be process-independent.

Group order at a merged vertex follows the signature hash, so
``Signature.__hash__`` cannot depend on the per-process
``PYTHONHASHSEED`` salt.  These tests pin the salt-free hash, a foreign
signature's lookup in an intern table, and the intern hit rate of the
merge.
"""

import os
import subprocess
import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.core.inter import InternTable, Signature, _stable_hash, merge_all  # noqa: E402

KEY = ("MPI_Send", 3, -100, 0, 0, 64, 0, 0, -1, False, (), -1)


class TestStableHash:
    def test_deterministic_in_process(self):
        assert _stable_hash(KEY) == _stable_hash(tuple(KEY))

    def test_foreign_signature_indexes_intern_table(self):
        table = InternTable()
        local = table.intern(KEY)
        foreign = Signature(tuple(KEY))
        assert foreign == local and hash(foreign) == hash(local)
        assert table.canon(foreign) is local
        assert table.hits == 1

    def test_hash_identical_across_hash_seeds(self):
        # str/tuple hashing is salted per process; the signature hash
        # must not be.  Compute it under two different PYTHONHASHSEEDs
        # and compare with this process.
        code = (
            "from repro.core.inter import _stable_hash; "
            f"print(_stable_hash({KEY!r}))"
        )
        values = {_stable_hash(KEY)}
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src"
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                env=env,
            )
            values.add(int(out.stdout.strip()))
        assert len(values) == 1


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
