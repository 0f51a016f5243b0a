"""A rank's live state in collector-tracked objects.

After a live mg run a rank's state is its tree: the vertices, their
child lists and group counters, each loop's or branch's sequence, each
leaf's record list and params index — and one object per record, whose
stats blocks and single occurrence term are slots of its own.  Counting
what the collector tracks per rank catches a layout that brings back
per-record satellite objects (two ``TimeStats``, an ``IntSequence`` and
its terms list each, until the record became one object).
"""

import gc
from collections import Counter

from repro.core import run_cypress
from repro.static.cst import BRANCH, LOOP
from repro.workloads import WORKLOADS

NPROCS = 64

#: Tracked objects a rank adds: measured 226.5 at P = 64 (the compiled
#: program's closures and CST nodes spread over 64 ranks) and 196.2 at
#: P = 1 024; 394.3 and 339.7 while a record had four satellites.
BOUND = 240


def _tracked() -> Counter:
    gc.collect()
    return Counter(type(obj).__name__ for obj in gc.get_objects())


def test_tracked_objects_per_rank():
    w = WORKLOADS["mg"]
    before = _tracked()
    run = run_cypress(w.source, NPROCS, defines=w.defines(NPROCS, 0.1))
    grown = _tracked() - before
    comp = run.compressor
    assert grown["CompressedRecord"] == comp.metrics_counters()["intra.records"]
    assert grown["TimeStats"] == 0
    sequences = sum(
        1 for v in comp.ctt(0).vertices() if v.kind in (LOOP, BRANCH)
    )
    assert grown["IntSequence"] == sequences * NPROCS
    assert sum(grown.values()) / NPROCS <= BOUND
