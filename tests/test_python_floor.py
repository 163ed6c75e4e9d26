"""Every program file parses under the oldest Python that pyproject.toml declares, so a
syntax feature newer than `requires-python` fails here and not only on that Python.
This checks syntax only: a standard-library name added after the floor is not caught."""

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
