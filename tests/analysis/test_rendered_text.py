"""The analyses render query-engine answers: the text they print is
pinned byte for byte, and on a loaded trace they build no record.

``repro info`` and ``repro hotspots`` render the four v8 golden
containers, and ``repro patterns`` traces leslie3d itself; the expected
stdout of each command line is stored in ``tests/data/rendered_text.json``
(keyed by the command line, run from the repository root).  Any change
to how an analysis computes its answer must leave this text alone."""

import json
import pathlib
import shlex

import pytest

from repro import obs
from repro.analysis import (
    communication_matrix, hotspots, message_sizes, summarize,
)
from repro.cli import main
from repro.core import serialize

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"
EXPECTED = json.loads((DATA / "rendered_text.json").read_text())


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_stdout_is_pinned(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == EXPECTED[command]


@pytest.mark.parametrize("name", ["fig11", "mg", "single", "sp"])
def test_analyses_build_no_record(name):
    merged = serialize.loads((DATA / f"golden_{name}_v8.cyp").read_bytes())
    registry = obs.enable()
    try:
        summarize(merged)
        communication_matrix(merged, merged.nranks_merged)
        message_sizes(merged)
        hotspots(merged)
    finally:
        obs.disable()
    assert "serialize.records_materialized" not in registry.counters
