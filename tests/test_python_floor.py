"""Every program file parses under the oldest Python that pyproject.toml declares, so a
syntax feature newer than `requires-python` fails here and not only on that Python.
This checks syntax only: a standard-library name added after the floor is not caught.

Every name a package module imports is used in it, unless its import carries
`# noqa: F401`; `__init__.py`, whose imports are the package's re-exports, is exempt."""

import ast
import re

import pytest

from tests.conftest import REPO_ROOT

FLOOR = tuple(int(part) for part in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE).groups())
SOURCES = sorted(path for folder in ("src", "scripts")
                 for path in (REPO_ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_parses_under_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


PACKAGE = sorted(path for path in (REPO_ROOT / "src" / "redflagcds").glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, but for an import marked `noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_unused_import_scan_finds_an_unused_name_and_honours_noqa():
    source = "import os\nimport re  # noqa: F401\nfrom typing import (Any,\n    Optional)\nAny\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Optional"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
