"""Contract-shape smoke test of the end-to-end benchmark.

Not collected by tier-1 (``testpaths = ["tests"]``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import spans  # noqa: E402
from benchmarks.e2e.metrics import MOVES, contract  # noqa: E402
from benchmarks.e2e.workloads import SPECS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(HERE / "run.py")]


def test_contract_shape():
    c = contract()
    assert set(c) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert c["paths"] == ["benchmarks/e2e"]
    assert isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60
    workloads = [w["name"] for w in c["workloads"]]
    assert workloads == list(SPECS) and 2 <= len(workloads) <= 8
    for w in c["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e, layers = c["end_to_end"], c["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = workloads + [m["name"] for m in e2e + layers]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_every_layer_metric_says_what_it_should_move():
    c = contract()
    assert list(MOVES) == [m["name"] for m in c["per_layer"]]
    end_to_end = {m["name"] for m in c["end_to_end"]}
    for layer, moves in MOVES.items():
        for metric, workload in moves:
            assert metric in end_to_end, (layer, metric)
            assert workload in SPECS, (layer, workload)


@pytest.fixture(scope="module")
def smoke_output() -> str:
    done = subprocess.run(
        [*RUN, "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_smoke_prints_every_metric_with_its_unit(smoke_output):
    report = json.loads((HERE / "out" / "report.json").read_text())
    c = contract()
    assert set(report["environment"]) >= {
        "commit", "seed", "nproc", "python", "loadavg_start",
    }
    for workload in SPECS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail = report["workloads"][workload][f"trace{trace}"]
            assert list(detail["metrics"]) == [m["name"] for m in c[key]]
            assert detail["attempted"] >= 1 and detail["failed"] == 0
            for m in c[key]:
                assert detail["metrics"][m["name"]]["unit"] == m["unit"]
                assert re.search(
                    rf"^\s*{re.escape(m['name'])}\s+\S+\s+"
                    rf"{re.escape(m['unit'])}\s",
                    smoke_output, re.MULTILINE,
                ), m["name"]
        untraced = report["workloads"][workload]["trace0"]["metrics"]
        assert all(m["value"] > 0 for m in untraced.values()), workload


def test_span_parents_resolve(smoke_output):
    recorded = spans.read(str(HERE / "out" / "spans.jsonl"))
    ids = {s["id"] for s in recorded}
    assert len(ids) == len(recorded)
    runs: dict[str, set] = {}
    for s in recorded:
        assert s["parent"] is None or s["parent"] in ids
        assert s["end"] >= s["start"]
        runs.setdefault(s["workload"], set()).add(s["run"])
    assert set(runs) == set(SPECS)
    assert all(len(run_ids) == 1 for run_ids in runs.values())
    for workload in SPECS:
        shares = spans.path_shares(
            [s for s in recorded if s["workload"] == workload]
        )
        assert shares and all(0 < e["covered"] <= 1 for e in shares.values())


#: Runs a command as a child subreaper: a process that outlives the command
#: is re-parented to this helper, which prints what is still its child.
WATCHER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except OSError:
        continue
    if stat.rsplit(")", 1)[1].split()[1] == str(os.getpid()):
        left.append(stat[:60])
print(left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs prctl and /proc")
def test_traced_batch_pass_leaves_no_process_behind():
    """The traced batch pass forks the ``workers=2`` pool, whose rings
    start ``multiprocessing``'s resource tracker; that helper used to end
    just after the run did, unwaited."""
    done = subprocess.run(
        [sys.executable, "-c", WATCHER, *RUN, "--workload", "loop_fig11",
         "--seed", "3", "--seconds", "0.5", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "[]"


def test_one_workload_ends_with_the_result_object():
    done = subprocess.run(
        [*RUN, "--workload", "loop_fig11", "--seed", "3", "--seconds", "0.5",
         "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [
        m["name"] for m in contract()["end_to_end"]
    ]
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
