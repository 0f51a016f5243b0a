"""What the product imports: numpy stays off its path (docs/INTERNALS.md
§10), and nothing in it comes from the test tree.

Only ``fit_loggp``, ``communication_matrix`` / ``neighbor_sets`` and the
ScalaTrace baseline's ``_align`` compute with numpy, and each imports it
in its own body.  The numpy checks run in a fresh interpreter: this one
has numpy loaded already.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_mg_v8.cyp"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], env=ENV, capture_output=True, text=True,
        timeout=300,
    )


def test_importing_every_module_leaves_numpy_out():
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if m.name.rsplit('.', 1)[-1] != '__main__':\n"
        "        importlib.import_module(m.name)\n"
        "print(sum(k.startswith('repro.') for k in sys.modules))\n"
        "print('numpy' in sys.modules)\n"
    )
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr[-2000:]
    imported, numpy_loaded = result.stdout.splitlines()
    assert int(imported) > 50  # the walk really imported the package
    assert numpy_loaded == "False"


def test_cli_commands_import_no_numpy(tmp_path):
    commands = (
        ["trace", "fig11", "-n", "4", "-o", str(tmp_path / "f.cyp")],
        ["info", str(GOLDEN)],
        ["query", str(GOLDEN), "traffic"],
        ["check", str(GOLDEN)],
    )
    for argv in commands:
        result = _python("-X", "importtime", "-m", "repro", *argv)
        assert result.returncode == 0, (argv, result.stderr[-2000:])
        assert "repro.cli" in result.stderr  # the import log is there
        numpy_lines = [
            line for line in result.stderr.splitlines() if "numpy" in line
        ]
        assert numpy_lines == [], (argv, numpy_lines[:5])


def test_product_does_not_ship_the_fault_harness():
    # The fault harness lives under tests/faults/: nothing under
    # src/repro imports from tests/, and its old module paths are gone.
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            assert not any(
                n == "tests" or n.startswith("tests.") for n in names
            ), (path, names)
    for name in ("repro.faults", "repro.verify.faultmatrix",
                 "repro.verify.differential"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
