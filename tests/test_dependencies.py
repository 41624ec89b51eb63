"""The package runs on the standard library and numpy alone.

scipy is a test-only dependency: the suite uses it as an independent oracle
(``integrate.quad``, ``signal.welch``), and the ``test`` extra installs it,
with every other package the suite imports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RUNTIME_PACKAGES = {"numpy", "zitter"}
#: standard library from Python 3.11; on 3.10 the suite skips what needs it
NEWER_STDLIB = {"tomllib"}


def imported_packages(path):
    """Top-level package of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted((REPO / "src" / "zitter").glob("*.py")),
                         ids=lambda p: p.name)
def test_source_imports_only_stdlib_and_numpy(path):
    foreign = imported_packages(path) - RUNTIME_PACKAGES - set(sys.stdlib_module_names)
    assert foreign == set()


def load_project():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_project_depends_on_numpy_only():
    project = load_project()
    assert project["dependencies"] == ["numpy>=2.0"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_test_extra_lists_what_the_suite_imports():
    listed = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
              for dep in load_project()["optional-dependencies"]["test"]}
    imported = set().union(*(imported_packages(path)
                             for path in sorted((REPO / "tests").glob("*.py"))))
    foreign = imported - RUNTIME_PACKAGES - NEWER_STDLIB - set(sys.stdlib_module_names)
    assert {"hypothesis", "pytest", "scipy"} <= foreign  # the parse finds the suite's imports
    assert foreign <= listed


#: numpy names that reach BLAS or LAPACK, whose kernels a DYNAMIC_ARCH build
#: picks by CPU at run time, so their bits may differ between hosts
BLAS_NAMES = {"linalg", "dot", "matmul", "vdot", "inner", "tensordot"}


def blas_uses(source):
    """Line and text of each ``@``, ``numpy.linalg`` or BLAS product in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [f"{node.module}.{alias.name}" for alias in node.names])
            found.extend((node.lineno, m) for m in modules
                         if m.split(".")[0] == "numpy" and set(m.split(".")) & BLAS_NAMES)
    return found


def test_blas_guard_sees_each_form():
    source = ("import numpy.linalg\nfrom numpy import dot\nfrom numpy.linalg import eig\n"
              "a @ b\na @= b\nnp.linalg.inv(a)\nnp.matmul(a, b)\na.dot(b)\n"
              "np.vdot(a, b)\nnp.inner(a, b)\nnp.tensordot(a, b)\nnp.einsum('ij,j', a, b)\n")
    assert sorted(line for line, _ in blas_uses(source)) == list(range(1, 12))


@pytest.mark.parametrize("path", sorted((REPO / "src" / "zitter").glob("*.py")),
                         ids=lambda p: p.name)
def test_source_calls_no_blas(path):
    # the cross-kernel replay in test_cli skips on hosts without a
    # DYNAMIC_ARCH OpenBLAS; this keeps a BLAS call from returning unseen there
    assert blas_uses(path.read_text(encoding="utf-8")) == []
