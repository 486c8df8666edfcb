"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "reflexo").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    # [TRIVIAL] relative imports stay inside the package; every absolute
    # import names a standard-library module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    outside = [m for m in modules
               if m.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


def test_sources_found():
    # [TRIVIAL] the parametrisation above is not vacuous
    assert len(SRC) >= 9
