"""Module-level imports and private names are all used, no count or skew-Hermiticity is checked inline, orbit.py
eigendecomposes the drift once, the optimizers use no reduction or solve that can round differently from its per-row
form, steering finds repeated rows without ``np.unique``, no file is truncated to zero on write, the benchmark tracer's bindings all exist, and the CLI imports no
optimizer."""

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


def unread_privates(sources: dict) -> list:
    """Module-level private names (``_name``, not dunder) that no module of ``sources`` reads.

    A function, class or constant counts as read when any module loads the
    name, reaches it as an attribute, or imports it by name.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [f"{module}: {name}" for name in names if name.startswith("_") and not name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return sorted(d for d in defined if d.split(": ")[1] not in read)


def test_every_private_name_is_read():
    assert unread_privates({p.name: p.read_text() for p in MODULES}) == []


def test_finds_unread_private():
    helper = "def _cluster_spans(values, tol):\n    return [values]\n"
    reader = "from .a import _used\n_LIMIT: int = 3\n_used(_LIMIT)\n"
    sources = {"a.py": helper + "def _used(x):\n    return x\n", "b.py": reader}
    assert unread_privates(sources) == ["a.py: _cluster_spans"]


def int_comparisons(source: str) -> list:
    """Lines that compare ``int(x)`` by ``==`` or ``!=``: a count check that floats, bools and None get round."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Call) and isinstance(x.func, ast.Name) and x.func.id == "int" for x in operands):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_counts_use_the_shared_check(path):
    # Every count goes through matrices._check_count.
    assert int_comparisons(path.read_text()) == []


def test_finds_int_comparison():
    source = "def f(k):\n    if int(k) != k or int(k) < 1:\n        raise ValueError\n    return k == int(k)\n"
    assert int_comparisons(source) == [2, 4]


def skew_deviations(source: str) -> list:
    """``(top-level function, line)`` of each ``X + X.conj().T``, either way round: an inline skew-Hermiticity test."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                for x, y in ((node.left, node.right), (node.right, node.left)):
                    if (isinstance(y, ast.Attribute) and y.attr == "T" and isinstance(y.value, ast.Call)
                            and isinstance(y.value.func, ast.Attribute) and y.value.func.attr == "conj"
                            and ast.dump(y.value.func.value) == ast.dump(x)):
                        found.append((getattr(top, "name", None), node.lineno))
                        break
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_skew_rule_uses_the_shared_check(path):
    # The skew-Hermitian rule is written once, in matrices._check_skew_hermitian.
    shared = {"_check_skew_hermitian"} if path.name == "matrices.py" else set()
    assert [d for d in skew_deviations(path.read_text()) if d[0] not in shared] == []


def test_finds_skew_deviation():
    source = ("def _check_skew_hermitian(M, name):\n    d = M + M.conj().T\n"
              "def f(X):\n    return np.abs(X.conj().T + X)\nY = A + B.conj().T\nP = P - P.conj().T\n")
    assert skew_deviations(source) == [("_check_skew_hermitian", 2), ("f", 4)]


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "skew_eigensystem", "skew_eigensystems",
                "canonical_skew_eigensystem"}


def drift_decompositions(source: str) -> list:
    """``(top-level function, line)`` of each eigendecomposition whose arguments read a system's drift ``x.A``."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                operands = [*node.args, *(keyword.value for keyword in node.keywords)]
                if name in EIGENSOLVERS and any(isinstance(x, ast.Attribute) and x.attr == "A"
                                                and isinstance(x.value, ast.Name)
                                                for arg in operands for x in ast.walk(arg)):
                    found.append((getattr(top, "name", None), node.lineno))
    return found


def test_drift_frame_is_built_once():
    # orbit.py eigendecomposes A in one place, the drift frame builder; the certificate and the joint frame read it.
    source = (MODULES[0].parent / "orbit.py").read_text()
    assert [name for name, _ in drift_decompositions(source)] == ["_generated_algebra"]


def test_finds_drift_decomposition():
    source = ("def _generated_algebra(sys):\n    omega, U = skew_eigensystems(1j * sys.A)\n"
              "def f(sys, X):\n    w = np.linalg.eigh(1j * (sys.A + sys.B))\n    v = skew_eigensystems(1j * X)\n"
              "    return canonical_skew_eigensystem(X=system.A), np.linalg.svd(sys.A)\n")
    assert drift_decompositions(source) == [("_generated_algebra", 2), ("f", 4), ("f", 6)]


def inexact_reductions(source: str) -> list:
    """Lines that call ``einsum``, ``norm`` with an axis, ``lstsq``, ``pinv`` or ``inv``: row reductions and
    linear solves whose stacked rows can differ from the lone ones."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            with_axis = len(node.args) > 2 or any(keyword.arg == "axis" for keyword in node.keywords)
            if name in ("einsum", "lstsq", "pinv", "inv") or name == "norm" and with_axis:
                lines.add(node.lineno)
    return sorted(lines)


def test_steering_reductions_are_exact():
    # The array optimizers must equal the per-row ones bit for bit: their dot products
    # are batched matmuls, which equal the 1-d products on this build, while
    # einsum and an axis-wise norm sum in another order.  The stacked solve is the
    # one linear solve, and its rows are pinned equal to lone solves.
    assert inexact_reductions((MODULES[0].parent / "steering.py").read_text()) == []


def test_finds_inexact_reduction():
    source = ("import numpy as np\nfrom numpy.linalg import norm\n"
              "a = np.einsum('ij,ij->i', s, y)\nb = np.linalg.norm(s)\nc = np.linalg.norm(s, axis=1)\n"
              "d = norm(s, None, 1)\ne = np.sum(s * y, axis=1)\nf = np.linalg.lstsq(J, r)\n"
              "g = np.linalg.pinv(M) @ r\nfrom numpy.linalg import inv\nh = inv(M)\ni = np.linalg.solve(M, r)\n")
    assert inexact_reductions(source) == [3, 5, 6, 8, 9, 11]


def unique_calls(source: str) -> list:
    """Lines that call ``unique``: numpy's sorts, and its first call alone adds about 0.4 MB of resident memory."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call) and "unique" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))})


def test_steering_deduplicates_with_a_dict():
    # A round's repeated trials are found by their bytes in a dict, as dynamics finds repeated control values.
    assert unique_calls((MODULES[0].parent / "steering.py").read_text()) == []


def test_finds_unique():
    source = ("import numpy as np\nfrom numpy import unique\na, inverse = np.unique(x, axis=0, return_inverse=True)\n"
              "b = unique(x)\nc = {row.tobytes(): 0 for row in x}\nd = x.unique\n")
    assert unique_calls(source) == [3, 4]


def truncating_writes(source: str) -> list:
    """Lines that can truncate a file to zero: ``write_text``/``write_bytes`` calls, ``O_TRUNC``, ``open`` in a "w" mode."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if "O_TRUNC" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            modes = [x.value for x in [*node.args, *(keyword.value for keyword in node.keywords)]
                     if isinstance(x, ast.Constant) and isinstance(x.value, str)]
            if name in ("write_text", "write_bytes") or name == "open" and any(
                    "w" in mode and set(mode) <= set("wbt+") for mode in modes):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_files_are_written_in_place(path):
    # A file truncated to zero makes ext4 start its writeback on close, about
    # 0.35 ms a report: every file is written by fileio.write_in_place.
    assert truncating_writes(path.read_text()) == []


def test_finds_truncating_write():
    source = ("import os\nfrom os import O_TRUNC\nPath(p).write_text(s)\np.write_bytes(b)\n"
              "fd = os.open(p, os.O_WRONLY | os.O_TRUNC)\nf = open(p, 'w')\ng = io.open(p, mode='wb')\n"
              "h = Path(p).open('w+')\nopen(p), open(p, 'rb'), open('wide.json', 'a'), open(p, 'x')\n"
              "fd = os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)\nwrite_in_place(p, s)\n")
    assert truncating_writes(source) == [2, 3, 4, 5, 6, 7, 8]


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
    # The bench's setup_s times this import, so a third-party package it starts pulling in fails here first.
    code = ("import sys; before = set(sys.modules); import reachctl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scipy_modules, added = proc.stdout.splitlines()
    assert scipy_modules == "[]"
    assert added == "['numpy', 'reachctl']"
