"""Module-level imports are all used, the benchmark tracer's bindings all exist, and the CLI imports no optimizer."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reachctl

MODULES = sorted(Path(reachctl.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read | exported)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_unused_alias():
    source = "import numpy as np\nimport os.path\nfrom x import y, z\n__all__ = ['z']\nos.path.join(y)\n"
    assert unused_imports(source) == ["line 1: np"]


def tracer_bindings() -> list:
    """The ``(module, attribute)`` keys of the tracer's ``TRACED`` and ``KERNELS``, read without importing it."""
    keys = []
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TRACED", "KERNELS") for t in node.targets
        ):
            keys += list(ast.literal_eval(node.value))
    return keys


def test_tracer_bindings_resolve():
    # A traced benchmark run looks each function up by name; a moved or
    # deleted one stops it with an AttributeError.
    keys = tracer_bindings()
    assert {("reachctl.matrices", "frobenius_inner"), ("numpy.linalg", "eigh")} <= set(keys)
    missing = [f"{mod}.{attr}" for mod, attr in keys
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_cli_import_leaves_out_scipy_optimize():
    # scipy is a test-only dependency: importing scipy.linalg costs about
    # 0.2 s and 25 MB of RSS, scipy.optimize about 20 MB more, and the package
    # needs neither (its steering optimizer and exponential are written out).
    package_root = str(Path(reachctl.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = "import sys, reachctl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
