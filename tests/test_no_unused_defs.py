"""Every function, class and method defined in ``src/`` is used in code
somewhere in ``src/``, ``benchmarks/`` or ``examples/`` — a floor
against regrowth of helpers only their own unit tests call.

A use is an ``ast.Name`` or an ``ast.Attribute`` spelling the name.
Strings, docstrings and re-export imports do not count, and neither do
the tests.  The scan matches names, not bindings: a definition whose
name some other object also carries (``dumps``, ``load``) passes
unseen, so this is a floor, not a proof.

Every import in a ``src/`` module is used by that module: some
``ast.Name`` or ``ast.Attribute`` of it spells the bound name, or a
string annotation does (a ``TYPE_CHECKING`` import read only as
``"Runtime"``).  Package ``__init__.py`` files re-export, so they are
not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USERS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Names kept although no code spells them, each with its reason.
KEPT = {
    "binomial_bcast_schedule": "paper §V collective decomposition (docs/API.md)",
    "recursive_doubling_schedule": "paper §V collective decomposition (docs/API.md)",
    "pairwise_alltoall_schedule": "paper §V collective decomposition (docs/API.md)",
    "from_json": "QuarantineReport: reads the report file the daemon writes",
    "read_log_batches": "the session log's reader; the fault harness uses it",
    "check_ctt": "the per-rank invariant check; tests use it beside check_merged",
    "ingest_runs": "benchmarks/e2e/batch.py calls it by its name as a string",
    "run_source": "the driver's entry point for MiniMPI source text",
    "vertex_path": "query.paths: the path label of one vertex",
    "std": "TimeStats.std: the statistic beside mean/min/max",
    "expand_rank": "ScalaTrace baseline: one rank's events back",
    "expand_rank_st2": "ScalaTrace-2 baseline: one rank's events back",
}


def _allowed(name: str) -> bool:
    """Dunders are called by the language; ``_op_*`` handlers are
    dispatched by name."""
    return (name.startswith("__") and name.endswith("__")) or name.startswith(
        "_op_"
    )


def _defined() -> dict[str, list[str]]:
    """Every function, class and method name in ``src/`` -> where."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.setdefault(node.name, []).append(where)
    return found


def _used() -> set[str]:
    names: set[str] = set()
    for root in USERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_definition_is_used():
    used = _used()
    unused = {
        name: where
        for name, where in _defined().items()
        if name not in used and name not in KEPT and not _allowed(name)
    }
    assert unused == {}, (
        "defined in src/ but used nowhere in src/, benchmarks/ or "
        "examples/ (delete it, or list it in KEPT with a reason): "
        f"{unused}"
    )


def test_every_kept_name_is_still_defined_and_unused():
    defined, used = _defined(), _used()
    assert sorted(name for name in KEPT if name not in defined) == []
    assert sorted(name for name in KEPT if name in used) == []


def _string_annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside string annotations (``x: "Runtime"``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(
                    n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return names


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    used = _string_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(
                        f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unused


def test_every_import_is_used():
    unused = [
        where
        for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
        for where in _unused_imports(path)
    ]
    assert unused == [], f"imported but never used by the module: {unused}"
