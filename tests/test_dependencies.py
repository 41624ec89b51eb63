"""The package runs on the standard library and numpy alone.

scipy is a test-only dependency: the suite uses it as an independent oracle
(``integrate.quad``, ``signal.welch``), and the ``test`` extra installs it.
"""

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RUNTIME_PACKAGES = {"numpy", "zitter"}


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


def test_project_depends_on_numpy_only():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
