"""Every table under ``results/`` has one writer, and every experiment of
the paper's evaluation has its table: ``benchmarks/paper.py``'s
``EXPERIMENTS`` and the ``write(out, "<name>", ...)`` calls of the
remaining ``benchmarks/bench_*.py`` scripts name the ``.txt`` files.  A
table nothing regenerates, or an experiment whose table was never
committed, fails here.  Nothing is run: the names are read from the
table and from the scripts' source."""

import ast
from collections import Counter
from pathlib import Path

from benchmarks.paper import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def _script_tables() -> list[str]:
    """The literal table names the ``bench_*`` scripts pass to ``write``."""
    names = []
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "write"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                names.append(node.args[1].value)
    return names


def _writers() -> Counter:
    return Counter([exp.name for exp in EXPERIMENTS] + _script_tables())


def test_every_results_table_has_exactly_one_writer():
    writers = _writers()
    stems = [path.stem.removesuffix("_full")
             for path in sorted(RESULTS.glob("*.txt"))]
    assert stems, "no results/*.txt found"
    assert {s: writers[s] for s in stems if writers[s] != 1} == {}, (
        "results/ tables written by no experiment or script (delete the "
        "file) or by several (rename one)")


def test_every_experiment_has_its_table():
    missing = [exp.name for exp in EXPERIMENTS
               if not (RESULTS / f"{exp.name}.txt").is_file()]
    assert missing == [], (
        "experiments whose quick-grid table is not in results/ "
        "(run python -m benchmarks.paper)")


def test_the_scripts_are_read():
    # The scan above must see the remaining scripts' writes at all.
    assert {"bench_query", "bench_budget_soak"} <= set(_script_tables())
