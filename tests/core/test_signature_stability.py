"""Container bytes must not depend on the hash of a payload key.

The merge's payload index hashes each key tuple, and that hash carries
the per-process ``PYTHONHASHSEED`` salt.  Nothing written to a container
may follow it: groups are written by lowest member rank, statistics fold
in ascending rank order, dicts are read in insertion order.  These tests
pin that *property* — the same bytes under different salts, whatever
order the ranks are listed in.
"""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

sys.path.insert(0, "tests")
from spec_merge import spec_merge  # noqa: E402

from repro.core import serialize  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.core.intra import IntraProcessCompressor  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402
from repro.workloads import get as get_workload  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"

#: Irregular records, and groups that differ by rank.
SHAPES = (("sp", 4, 0.1), ("mg", 16, 0.1))


def container_digests() -> dict[str, str]:
    """SHA-256 of every container this process can be asked for: each
    shape's ranks listed ascending, descending and shuffled, merged by
    ``merge_all`` and by the pairwise spec (``tests/spec_merge.py``),
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
        for label, order in orders.items():
            routes = {
                "merge_all": merge_all(order, nranks=nprocs),
                "spec": spec_merge(order),
            }
            for route, merged in routes.items():
                blob = serialize.dumps(merged)
                out[f"{name}/{label}/{route}"] = hashlib.sha256(blob).hexdigest()
    for path in sorted(DATA.glob("golden_*.cyp")):
        blob = serialize.dumps(serialize.loads(path.read_bytes()))
        out[f"redump/{path.name}"] = hashlib.sha256(blob).hexdigest()
    return out


class TestStableHash:
    def test_bytes_identical_across_hash_seeds(self):
        here = container_digests()
        # Every listing order and both merge routes agree in-process ...
        for name, _nprocs, _scale in SHAPES:
            assert len({
                digest for key, digest in here.items()
                if key.startswith(f"{name}/")
            }) == 1, name
        # ... the goldens survive a load and dump (a v7 one as its v8
        # golden, and either as v9: the version byte alone changes) ...
        for path in sorted(DATA.glob("golden_*.cyp")):
            written = path.with_name(path.name.replace("_v7.", "_v8."))
            blob = written.read_bytes()
            assert here[f"redump/{path.name}"] == hashlib.sha256(
                blob[:4] + bytes([9]) + blob[5:]
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

